"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from bisect import bisect_right

from mapf_collapse import (
    AgentRecord,
    Graph,
    GridMap,
    IlpModel,
    PlanRequest,
    Schedule,
    grid_to_graph,
    noisy_rollout,
)
from mapf_collapse.candidates import EXHAUSTIVE, generate_candidates


def schedule_from_paths(paths, starts=None, goals=None, names=None):
    """Schedule with start = path[0] and goal = path[-1] unless overridden."""
    horizon = len(paths[0]) - 1
    agents = []
    for i, path in enumerate(paths):
        start = starts[i] if starts else path[0]
        goal = goals[i] if goals else path[-1]
        name = names[i] if names else f"a{i}"
        agents.append(AgentRecord(name, start, goal, tuple(path)))
    return Schedule(tuple(agents), horizon)


def line_graph(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def complete_graph(names):
    names = list(names)
    edges = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return Graph(names, edges)


def open_grid(height, width):
    return GridMap(height, width, frozenset())


def single_edge_graph():
    return Graph(["u1", "u2"], [("u1", "u2")])


def triangle_graph():
    return Graph(["u1", "u2", "u3"], [("u1", "u2"), ("u2", "u3"), ("u1", "u3")])


def square_graph():
    vs = ["u1", "u2", "u3", "u4"]
    return Graph(vs, [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1")])


def random_rollout_instance(
    rng: random.Random,
    height=3,
    width=3,
    n_agents=3,
    horizon=8,
    noise=0.5,
    blocked_cells=0,
):
    """A relaxed-feasible schedule from a seeded rollout on a small grid."""
    while True:
        blocked = set()
        cells = [(r, c) for r in range(height) for c in range(width)]
        if blocked_cells:
            blocked = set(rng.sample(cells, blocked_cells))
        grid = GridMap(height, width, frozenset(blocked))
        free = [f"r{r}c{c}" for r, c in grid.free_cells()]
        if len(free) < 2 * n_agents:
            continue
        graph = grid_to_graph(grid)
        starts = tuple(rng.sample(free, n_agents))
        goals = tuple(rng.sample(free, n_agents))
        request = PlanRequest(
            graph,
            starts,
            goals,
            horizon=horizon,
            seed=rng.randrange(1 << 30),
            noise=noise,
            grid=grid,
        )
        return noisy_rollout(request), graph, grid


def positive_exhaustive_count(schedule) -> int:
    cands = generate_candidates(schedule, EXHAUSTIVE)
    return sum(1 for c in cands.actions if c.weight > 0)


def eager_exclusions_in(candidates):
    """Within-agent exclusions listed pair by pair: the reference sweep."""
    actions = candidates.actions
    pairs = []
    for indices in candidates.per_agent.values():
        # indices are sorted by (a, b); sweep by start using bisect on starts
        starts = [actions[i].a for i in indices]
        for pos, i in enumerate(indices):
            hi = bisect_right(starts, actions[i].b)
            for pos2 in range(pos + 1, hi):
                pairs.append((i, indices[pos2]))
    pairs.sort()
    return tuple(pairs)


def per_step_dependencies(schedule, candidates):
    """(dependencies, invalid) by the step-by-step scan: the reference.

    For each action, every step k of [a, b] in order, every other agent
    standing on x at k in index order, and its suitable set found by a
    linear scan over its candidates. A suitable set already recorded for
    the action is skipped; an empty one makes the action invalid and
    ends its scan.
    """
    from mapf_collapse.relations import Dependency

    actions = candidates.actions
    dependencies, invalid = [], []
    for ci, c in enumerate(actions):
        seen, bad = set(), False
        for k in range(c.a, c.b + 1):
            for j, ag in enumerate(schedule.agents):
                if j == c.agent or ag.path[k] != c.x:
                    continue
                suitable = tuple(
                    s
                    for s in candidates.per_agent.get(j, ())
                    if actions[s].a <= k <= actions[s].b and actions[s].x != c.x
                )
                if not suitable:
                    invalid.append(ci)
                    bad = True
                    break
                if suitable not in seen:
                    seen.add(suitable)
                    dependencies.append(Dependency(ci, j, k, suitable))
            if bad:
                break
    dependencies.sort(key=lambda d: (d.action, d.blocker, d.timestep))
    return tuple(dependencies), tuple(sorted(invalid))


def eager_mutex(candidates, relations, fixed_zero):
    """Every exclusion between two unfixed variables, sorted and deduplicated."""
    return tuple(
        sorted(
            {
                pair
                for pair in eager_exclusions_in(candidates) + relations.exclusions_cross
                if pair[0] not in fixed_zero and pair[1] not in fixed_zero
            }
        )
    )


def explicit_model(model, candidates, relations):
    """The same 0/1 model built by hand, with every mutex pair listed."""
    return IlpModel(
        model.weights,
        eager_mutex(candidates, relations, model.fixed_zero),
        model.implications,
        model.fixed_zero,
    )


def brute_force_model(model):
    """Best saving over every subset of a small model's free variables
    that meets all its mutexes and implications: the reference."""
    free = model.free()
    best = 0
    for mask in range(1 << len(free)):
        chosen = {v for k, v in enumerate(free) if mask >> k & 1}
        if any(a in chosen and b in chosen for a, b in model.mutex):
            continue
        if any(owner in chosen and chosen.isdisjoint(suitable) for owner, suitable in model.implications):
            continue
        best = max(best, sum(model.weights[v] for v in chosen))
    return best
