"""Compile an Independent Set instance into a collapse instance.

Given H = (U, F) and a target K, the construction builds one
"vertex agent" per u in U that leaves x_u for a private parking vertex
and returns at the end of the horizon, and one "edge agent" per edge
that sweeps a 7-step block through both endpoint vertices of its edge.
Collapsing a vertex agent saves 2 moves but parks it on x_u forever;
each edge agent offers two mutually exclusive 4-move collapses, one
avoiding each endpoint visit. The optimal total saving is therefore
4m + 2 * (max independent set size): the optimal cost is at most
beta = c0 - 4m - 2k exactly when H has an independent set of size k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .graph import Graph
from .schedule import AgentRecord, Schedule, cost_moves

BLOCK = 7  # timesteps consumed per edge block


@dataclass(frozen=True)
class ReductionOutput:
    graph: Graph
    schedule: Schedule
    beta: int
    c0: int
    m: int
    vertex_agents: dict[str, int]
    edge_agents: tuple[int, ...]


def reduce_independent_set(h: Graph, k: int) -> ReductionOutput:
    """Build the collapse instance equivalent to 'H has an independent set >= k'."""
    m = len(h.edges)
    if m == 0:
        raise CapExceededError(
            "graph has no edges; the reduction is undefined (any k <= |U| vertices are independent)"
        )
    n_u = len(h.vertices)
    if not (1 <= k <= n_u):
        raise ValueError(f"k must be in [1, {n_u}], got {k}")

    T = BLOCK * m - 1
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    x = {u: f"x_{u}" for u in h.vertices}
    p = {u: f"p_{u}" for u in h.vertices}
    for u in h.vertices:
        vertices.extend((x[u], p[u]))
        edges.append((x[u], p[u]))
    a_v, b_v, c_v = [], [], []
    for r, (u, v) in enumerate(h.edges, start=1):
        a, b, c = f"a_e{r}", f"b_e{r}", f"c_e{r}"
        a_v.append(a)
        b_v.append(b)
        c_v.append(c)
        vertices.extend((a, b, c))
        edges.extend(
            [(a, x[u]), (x[u], b), (b, c), (c, a), (a, x[v]), (x[v], b)]
        )
    graph = Graph(vertices, edges)

    agents: list[AgentRecord] = []
    vertex_agents: dict[str, int] = {}
    for u in h.vertices:
        path = [x[u]] + [p[u]] * (T - 1) + [x[u]]
        vertex_agents[u] = len(agents)
        agents.append(AgentRecord(f"A_{u}", x[u], x[u], tuple(path)))
    edge_agents: list[int] = []
    for r, (u, v) in enumerate(h.edges, start=1):
        theta = BLOCK * (r - 1)
        a, b, c = a_v[r - 1], b_v[r - 1], c_v[r - 1]
        path = [a] * theta
        path += [a, x[u], b, c, a, x[v], b]
        path += [b] * (T - (theta + 6))
        edge_agents.append(len(agents))
        agents.append(AgentRecord(f"B_e{r}", a, b, tuple(path)))

    schedule = Schedule(tuple(agents), T)
    c0 = cost_moves(schedule)
    beta = c0 - 4 * m - 2 * k
    return ReductionOutput(graph, schedule, beta, c0, m, vertex_agents, tuple(edge_agents))
