"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_left, bisect_right

from mapf_collapse import (
    AgentRecord,
    ConsistencyError,
    Graph,
    GridMap,
    IlpModel,
    PlanningError,
    PlanRequest,
    Schedule,
    UnknownVertexError,
    UnsupportedScheduleError,
    brute_force_mis,
    grid_to_graph,
    noisy_rollout,
    validate,
)
from mapf_collapse.candidates import EXHAUSTIVE, REDUCED, collapse_paths, generate_candidates
from mapf_collapse.graph import parse_cell
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule
from mapf_collapse.reduction import reduce_independent_set
from mapf_collapse.schedule import STRICT, FeasibilityReport, Violation, _check_mode


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


class ReferenceGraph:
    """Graph's observable behaviour kept in a vertex set and a set of
    normalized edge keys (u, v) with u <= v: the reference for Graph,
    which answers the same questions from its adjacency alone."""

    def __init__(self, vertices, edges):
        self.vertex_set: set[str] = set()
        self.adj: dict[str, set[str]] = {}
        ordered = []
        for v in vertices:
            if not isinstance(v, str) or v == "":
                raise ValueError(f"invalid vertex id {v!r}")
            if v not in self.vertex_set:
                self.vertex_set.add(v)
                self.adj[v] = set()
                ordered.append(v)
        self.vertices = tuple(ordered)
        edge_list = []
        self.edge_set: set[tuple[str, str]] = set()
        for u, v in edges:
            if u not in self.vertex_set:
                raise UnknownVertexError(u)
            if v not in self.vertex_set:
                raise UnknownVertexError(v)
            if u == v:
                raise ValueError(f"explicit self-loop on {u!r}; waiting is implicit")
            key = (u, v) if u <= v else (v, u)
            if key in self.edge_set:
                continue
            self.edge_set.add(key)
            edge_list.append((u, v))
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = tuple(edge_list)

    def __eq__(self, other) -> bool:
        return self.vertex_set == other.vertex_set and self.edge_set == other.edge_set

    def require(self, v: str) -> None:
        if v not in self.vertex_set:
            raise UnknownVertexError(v)

    def neighbors(self, v: str) -> list[str]:
        self.require(v)
        return sorted(self.adj[v])

    def has_edge(self, u: str, v: str) -> bool:
        self.require(u)
        self.require(v)
        return u == v or ((u, v) if u <= v else (v, u)) in self.edge_set

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [[u, v] for u, v in self.edges]}


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


def reduction_roundtrip(h, ks):
    """Optimize the reduction of H through optimize_schedule and check it
    against brute force: the optimum is proved, it recovers alpha(H) as
    c0 - opt == 4m + 2 alpha, and for each k in ks, opt <= beta(k)
    exactly when alpha >= k. Returns (opt, alpha)."""
    red = reduce_independent_set(h, 1)
    stats = optimize_schedule(red.schedule, red.graph, OptimizeConfig(time_limit_ms=120_000)).stats
    assert stats["optimal"]
    assert stats["cost_before"] == red.c0
    opt = stats["cost_after"]
    alpha = brute_force_mis(h)
    assert red.c0 - opt == 4 * red.m + 2 * alpha
    for k in ks:
        assert (opt <= reduce_independent_set(h, k).beta) == (alpha >= k)
    return opt, alpha


def edge_instance_json():
    """Instance JSON of one agent crossing the edge A-B at T=1."""
    return {
        "graph": {"vertices": ["A", "B"], "edges": [["A", "B"]]},
        "horizon": 1,
        "agents": [{"name": "a0", "start": "A", "goal": "B", "path": ["A", "B"]}],
    }


def random_rollout_instance(
    rng: random.Random,
    height=3,
    width=3,
    n_agents=3,
    horizon=8,
    noise=0.5,
    blocked_cells=0,
):
    """A relaxed-feasible schedule from a seeded rollout on a small grid.

    Raises ValueError when the grid has fewer than 2 * n_agents free
    cells: every grid of that size would have too few.
    """
    if 2 * n_agents > height * width - blocked_cells:
        raise ValueError(
            f"{n_agents} agents need {2 * n_agents} free cells; "
            f"a {height}x{width} grid with {blocked_cells} blocked has {height * width - blocked_cells}"
        )
    blocked = set()
    cells = [(r, c) for r in range(height) for c in range(width)]
    if blocked_cells:
        blocked = set(rng.sample(cells, blocked_cells))
    grid = GridMap(height, width, frozenset(blocked))
    free = [f"r{r}c{c}" for r, c in grid.free_cells()]
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
    )
    return noisy_rollout(request), graph, grid


def crowded_schedules():
    """Reduction gadgets and 8-agent rollouts on 5x5 grids: many blockers."""
    rng = random.Random(31)
    out = []
    for _ in range(20):
        n = rng.randint(3, 5)
        names = [f"u{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        h = Graph(names, rng.sample(pairs, rng.randint(1, min(4, len(pairs)))))
        out.append(reduce_independent_set(h, rng.randint(1, n)).schedule)
    for _ in range(50):
        s, _, _ = random_rollout_instance(
            rng, height=5, width=5, n_agents=8, horizon=24, noise=rng.choice([0.3, 0.6, 0.9])
        )
        out.append(s)
    return out


def positive_exhaustive_count(schedule) -> int:
    cands = generate_candidates(schedule, EXHAUSTIVE)
    return sum(1 for w in cands.weights if w > 0)


def candidate_rows(candidates):
    """Each candidate's (agent, a, b, x, weight), read off the columns."""
    return [(*span, x, w) for span, x, w in zip(candidates.actions, candidates.vertices, candidates.weights)]


def agent_candidates(candidates, agent) -> range:
    """Indices of one agent's candidates: the bisect range of the
    actions column, which is sorted by (agent, a, b)."""
    actions = candidates.actions
    return range(bisect_left(actions, (agent,)), bisect_left(actions, (agent + 1,)))


def reference_candidates(schedule, mode):
    """(actions, vertices, weights) by a scan over the cells: the reference
    for generate_candidates.

    Every pair a < b of one agent with path[a] == path[b], weighted by
    the moves in [a, b], in (agent, a, b) order. Reduced mode keeps only
    the pairs from the last step of a run to the first step of a later
    run: path[a + 1] != path[a] and path[b - 1] != path[b].
    """
    actions, vertices, weights = [], [], []
    for agent, ag in enumerate(schedule.agents):
        p = ag.path
        for a in range(len(p)):
            for b in range(a + 1, len(p)):
                if p[a] != p[b]:
                    continue
                if mode == REDUCED and (p[a + 1] == p[a] or p[b - 1] == p[b]):
                    continue
                actions.append((agent, a, b))
                vertices.append(p[a])
                weights.append(sum(p[t] != p[t + 1] for t in range(a, b)))
    return tuple(actions), tuple(vertices), tuple(weights)


def eager_exclusions_in(candidates):
    """Within-agent exclusions listed pair by pair: the reference sweep."""
    actions = candidates.actions
    pairs = []
    for agent in sorted({span[0] for span in actions}):
        indices = agent_candidates(candidates, agent)
        # indices are sorted by (a, b); sweep by start using bisect on starts
        starts = [actions[i][1] for i in indices]
        for pos, i in enumerate(indices):
            hi = bisect_right(starts, actions[i][2])
            for pos2 in range(pos + 1, hi):
                pairs.append((i, indices[pos2]))
    pairs.sort()
    return tuple(pairs)


def per_step_dependencies(schedule, candidates):
    """(dependencies, invalid) by the step-by-step scan: the reference.

    For each action, every step k of [a, b] in order, every other agent
    standing on x at k in index order, and its suitable set found by a
    linear scan over its candidates. A suitable set already recorded for
    the action is skipped; an empty one makes the action invalid, ends
    its scan and drops the dependencies it had recorded.
    """
    from mapf_collapse.relations import Dependency

    actions, vertices = candidates.actions, candidates.vertices
    dependencies, invalid = [], []
    for ci, ((agent, a, b), x) in enumerate(zip(actions, vertices)):
        seen, found, bad = set(), [], False
        for k in range(a, b + 1):
            for j, ag in enumerate(schedule.agents):
                if j == agent or ag.path[k] != x:
                    continue
                suitable = tuple(
                    s
                    for s in agent_candidates(candidates, j)
                    if actions[s][1] <= k <= actions[s][2] and vertices[s] != x
                )
                if not suitable:
                    invalid.append(ci)
                    bad = True
                    break
                if suitable not in seen:
                    seen.add(suitable)
                    found.append(Dependency(ci, j, k, suitable))
            if bad:
                break
        else:
            dependencies.extend(found)
    dependencies.sort(key=lambda d: (d.action, d.blocker, d.timestep))
    return tuple(dependencies), tuple(sorted(invalid))


def eager_mutex(candidates, fixed_zero):
    """Every within-agent exclusion between two unfixed variables, sorted."""
    return tuple(
        pair
        for pair in eager_exclusions_in(candidates)
        if pair[0] not in fixed_zero and pair[1] not in fixed_zero
    )


def brute_force_model(model, extra_mutex=()):
    """Best saving over every selection of a small model's free variables
    that meets all its mutexes and implications, and no pair of
    extra_mutex: the reference.

    Selections are grown one variable at a time in ascending order, and
    a variable is added only when it is mutex with none already chosen,
    so every mutex-free selection is visited once and no other is."""
    free = model.free()
    conflicts = {v: set() for v in free}
    for a, b in itertools.chain(model.mutex, extra_mutex):
        if a in conflicts and b in conflicts:
            conflicts[a].add(b)
            conflicts[b].add(a)
    best = 0

    def grow(start, chosen, saving):
        nonlocal best
        if saving > best and all(
            owner not in chosen or not chosen.isdisjoint(suitable) for owner, suitable in model.implications
        ):
            best = saving
        for k in range(start, len(free)):
            v = free[k]
            if conflicts[v].isdisjoint(chosen):
                chosen.add(v)
                grow(k + 1, chosen, saving + model.weights[v])
                chosen.remove(v)

    grow(0, set(), 0)
    return best


def all_pairs_cross_exclusions(candidates):
    """Cross-agent exclusions by comparing every pair of candidates on one
    vertex, sorted: the reference for the sweep in build_relations."""
    actions = candidates.actions
    by_vertex = {}
    for idx, x in enumerate(candidates.vertices):
        by_vertex.setdefault(x, []).append(idx)
    pairs = []
    for group in by_vertex.values():
        for p in range(len(group)):
            agent_i, a_i, b_i = actions[group[p]]
            for q in range(p + 1, len(group)):
                agent_j, a_j, b_j = actions[group[q]]
                if agent_i != agent_j and a_i <= b_j and a_j <= b_i:
                    pairs.append((min(group[p], group[q]), max(group[p], group[q])))
    pairs.sort()
    return tuple(pairs)


def dumped_pairs(data):
    """(within-agent, cross-agent) exclusions recomputed from a relation
    dump's spans and vertices by comparing every pair of candidates, each
    sorted: the reference for reading the dump."""
    spans, vertices = data["spans"], data["vertices"]
    within, cross = [], []
    for i, j in itertools.combinations(range(len(spans)), 2):
        (p, a, b), (q, c, d) = spans[i], spans[j]
        if a <= d and c <= b:
            if p == q:
                within.append((i, j))
            elif vertices[i] == vertices[j]:
                cross.append((i, j))
    return tuple(within), tuple(cross)


def all_members_components(model):
    """Components of the free variables by union-find over every
    same-agent overlap and every implication owner with each of its free
    members, in _components' order: the reference."""
    free = model.free()
    parent = {v: v for v in free}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    coupled = set()
    for a, b in eager_overlaps(model):
        union(a, b)
    for owner, suitable in model.implications:
        if owner not in parent:
            continue
        coupled.add(owner)
        for s in suitable:
            if s in parent:
                union(owner, s)
    members = {}
    for v in free:
        members.setdefault(find(v), []).append(v)
    coupled_roots = {find(v) for v in coupled}
    comps = [(m, root in coupled_roots) for root, m in members.items()]
    return sorted(comps, key=lambda comp: (len(comp[0]), comp[0][0]))


def eager_overlaps(model):
    """Pairs of free variables of one agent whose spans intersect."""
    by_agent = {}
    for v in model.free():
        by_agent.setdefault(model.spans[v][0], []).append(v)
    return [
        (u, v)
        for vs in by_agent.values()
        for u, v in itertools.combinations(vs, 2)
        if model.spans[u][1] <= model.spans[v][2] and model.spans[v][1] <= model.spans[u][2]
    ]


def pairwise_dominated(model, comp):
    """Variables of comp that another variable of comp dominates, by
    testing every pair against implication memberships collected over
    the whole model.

    j dominates i when both have one agent and one weight, j's span is
    strictly nested in i's, j's owned suitable sets are among i's, and j
    is suitable wherever i is: swapping i for j in any feasible selection
    stays feasible and saves the same."""
    weights, spans, implications = model.weights, model.spans, model.implications
    owned_sets = {v: set() for v in range(model.n_vars)}
    member_of = {v: set() for v in range(model.n_vars)}
    for imp, (owner, suitable) in enumerate(implications):
        owned_sets[owner].add(suitable)
        for s in suitable:
            member_of[s].add(imp)
    fixed = []
    for i in comp:
        for j in comp:
            if (
                spans[j][0] == spans[i][0]
                and weights[j] == weights[i]
                and spans[i][1] <= spans[j][1]
                and spans[j][2] <= spans[i][2]
                and spans[j][1:] != spans[i][1:]
                and owned_sets[j] <= owned_sets[i]
                and member_of[i] <= member_of[j]
            ):
                fixed.append(i)
                break
    return sorted(fixed)


def reference_validate(schedule: Schedule, graph: Graph, mode: str = STRICT) -> FeasibilityReport:
    """validate by a walk over every (agent, timestep) cell: the reference.

    Checks a schedule against the graph and the collision rules. Strict
    mode checks everything; relaxed mode skips the goal-stop and
    duplicate-goal checks. Unknown vertices raise; they are an input
    error, not a violation.
    """
    _check_mode(mode)
    T = schedule.horizon
    ref = ReferenceGraph(graph.vertices, graph.edges)
    for ag in schedule.agents:
        ref.require(ag.start)
        ref.require(ag.goal)
        for v in ag.path:
            ref.require(v)

    violations: list[Violation] = []
    for i, ag in enumerate(schedule.agents):
        if ag.path[0] != ag.start:
            violations.append(Violation("start-mismatch", (i,), 0))
        if mode == STRICT and ag.path[T] != ag.goal:
            violations.append(Violation("goal-stop", (i,), T))
        for t in range(T):
            if not ref.has_edge(ag.path[t], ag.path[t + 1]):
                violations.append(Violation("disconnected-step", (i,), t))

    for t in range(T + 1):
        occupant: dict[str, int] = {}
        for i, ag in enumerate(schedule.agents):
            v = ag.path[t]
            if v in occupant:
                violations.append(Violation("vertex-collision", (occupant[v], i), t))
            else:
                occupant[v] = i

    for t in range(T):
        movers: dict[tuple[str, str], int] = {}
        for i, ag in enumerate(schedule.agents):
            u, v = ag.path[t], ag.path[t + 1]
            if u == v:
                continue
            if (v, u) in movers:
                violations.append(Violation("edge-collision", (movers[(v, u)], i), t))
            movers[(u, v)] = i

    seen_starts: dict[str, int] = {}
    seen_goals: dict[str, int] = {}
    for i, ag in enumerate(schedule.agents):
        if ag.start in seen_starts:
            violations.append(Violation("duplicate-start", (seen_starts[ag.start], i), 0))
        else:
            seen_starts[ag.start] = i
        if mode == STRICT:
            if ag.goal in seen_goals:
                violations.append(Violation("duplicate-goal", (seen_goals[ag.goal], i), T))
            else:
                seen_goals[ag.goal] = i

    violations.sort(key=lambda v: (v.timestep, v.kind, v.agents))
    return FeasibilityReport(not violations, tuple(violations))


def changed_rows_steps(result, base):
    """{agent: move steps} of result's rows whose path differs from
    base's, stepped cell by cell."""
    return {
        i: [t for t in range(len(ag.path) - 1) if ag.path[t] != ag.path[t + 1]]
        for i, (ag, before) in enumerate(zip(result.agents, base.agents))
        if ag.path != before.path
    }


def validated_input(schedule, graph, mode=STRICT):
    """apply_solution's validated argument for a feasible input: the
    input and each of its paths' move count."""
    report = validate(schedule, graph, mode)
    assert report.feasible, report.violations
    return schedule, list(map(len, report.moves))


def reference_apply(schedule, candidates, solution, graph, mode, *, cost, validated):
    """apply_solution without the check against the validated input: the
    selection collapsed, then the full validate and the saving check
    against cost, raising ConsistencyError with apply_solution's
    messages. Returns the result and the move steps of its rows whose
    path differs from the validated input's, keyed by agent."""
    result = collapse_paths(schedule, candidates, solution.selected)
    report = validate(result, graph, mode)
    if not report.feasible:
        raise ConsistencyError(
            f"applied solution is infeasible, first violation: {report.violations[0]}"
        )
    removed = cost - sum(map(len, report.moves))
    if removed != solution.saving:
        raise ConsistencyError(
            f"saving accounting mismatch: schedule lost {removed} moves, solver claimed {solution.saving}"
        )
    rows = zip(result.agents, validated[0].agents, report.moves)
    return result, {i: steps for i, (ag, before, steps) in enumerate(rows) if ag.path != before.path}


def reference_moves(schedule: Schedule) -> list[list[int]]:
    """Each path's move steps, stepped cell by cell: the moves argument
    of aba_prefilter_detailed."""
    return [[t for t in range(len(p) - 1) if p[t] != p[t + 1]] for p in (ag.path for ag in schedule.agents)]


def reference_cost_moves(schedule: Schedule) -> int:
    """Number of (agent, timestep) pairs that traverse an edge, cell by
    cell: the reference."""
    total = 0
    for ag in schedule.agents:
        p = ag.path
        total += sum(1 for t in range(len(p) - 1) if p[t] != p[t + 1])
    return total


def settle_time(path, goal) -> int:
    """Smallest t with path[k] == goal for all k >= t; T if never
    settled, cell by cell: the reference for soc_from_moves."""
    T = len(path) - 1
    if path[T] != goal:
        return T
    t = T
    while t > 0 and path[t - 1] == goal:
        t -= 1
    return t


def count_chain_pairs(spans, chain) -> int:
    """len(relations.intersecting_pairs(spans, [chain])) for a chain
    sorted by start, with one bisect per span."""
    starts = [spans[i][1] for i in chain]
    return sum(bisect_right(starts, spans[i][2]) - pos - 1 for pos, i in enumerate(chain))


def reference_n_mutex(model: IlpModel) -> int:
    """len(model.mutex), counted per agent over its free variables sorted
    by start without listing the pairs: the reference for the solver's
    count."""
    by_agent = {}
    for v in sorted(model.free(), key=lambda v: model.spans[v][1]):
        by_agent.setdefault(model.spans[v][0], []).append(v)
    return sum(count_chain_pairs(model.spans, group) for group in by_agent.values())


def reference_aba_prefilter(schedule: Schedule) -> Schedule:
    """aba_prefilter_detailed by a walk over every (agent, timestep) cell
    with per-timestep occupancy counts: the reference.

    Rewrites A,B,A position triples to A,A,A where no collision results,
    in one scan, agents in index order and timesteps ascending. A
    rewrite is skipped when another agent occupies A at the middle
    timestep in the current, partially rewritten schedule.
    """
    T = schedule.horizon
    paths = [list(ag.path) for ag in schedule.agents]
    # occupancy[t] = multiset of vertices occupied at t, as counts
    occupancy: list[dict[str, int]] = [dict() for _ in range(T + 1)]
    for row in paths:
        for t, v in enumerate(row):
            occupancy[t][v] = occupancy[t].get(v, 0) + 1

    for row in paths:
        for t in range(1, T):
            a = row[t - 1]
            if row[t + 1] != a or row[t] == a:
                continue
            occ = occupancy[t]
            if occ.get(a, 0) > 0:
                continue  # someone else sits at A right now
            b = row[t]
            occ[b] -= 1
            if occ[b] == 0:
                del occ[b]
            occ[a] = occ.get(a, 0) + 1
            row[t] = a
    return schedule.with_paths(dict(enumerate(paths)))


def reference_runs(path) -> list[tuple[str, int, int]]:
    """Maximal constant runs as (vertex, first, last), cell by cell: the
    reference for schedule.path_runs."""
    runs = []
    start = 0
    for t in range(1, len(path)):
        if path[t] != path[start]:
            runs.append((path[start], start, t - 1))
            start = t
    runs.append((path[start], start, len(path) - 1))
    return runs


def reference_agent_density(schedule: Schedule, grid: GridMap, fov: int = 11) -> float:
    """agent_density by comparing every pair of agents at every
    timestep, with a prefix-sum table of free cells: the reference.

    For every (agent, timestep) pair, count the agents inside the
    fov x fov window centered on the agent (the agent itself included,
    window clipped at the map borders) and divide by the number of free
    cells inside the clipped window. Returns the mean over all pairs.
    """
    if fov < 1 or fov % 2 == 0:
        raise ValueError(f"fov must be odd and positive, got {fov}")
    if not schedule.agents:
        return 0.0
    half = fov // 2
    cells: list[list[tuple[int, int]]] = []
    for ag in schedule.agents:
        row = []
        for v in ag.path:
            rc = parse_cell(v)
            if rc is None:
                raise UnsupportedScheduleError(f"vertex {v!r} is not a grid cell")
            row.append(rc)
        cells.append(row)

    # 2-D prefix sums over free cells for O(1) window denominators.
    H, W = grid.height, grid.width
    pref = [[0] * (W + 1) for _ in range(H + 1)]
    for r in range(H):
        row_pref = pref[r + 1]
        prev = pref[r]
        for c in range(W):
            row_pref[c + 1] = (
                row_pref[c] + prev[c + 1] - prev[c] + (1 if grid.is_free(r, c) else 0)
            )

    def free_in(r0: int, r1: int, c0: int, c1: int) -> int:
        return pref[r1 + 1][c1 + 1] - pref[r0][c1 + 1] - pref[r1 + 1][c0] + pref[r0][c0]

    total = 0.0
    count = 0
    T = schedule.horizon
    for t in range(T + 1):
        positions = [cells[i][t] for i in range(len(cells))]
        for r, c in positions:
            r0, r1 = max(0, r - half), min(H - 1, r + half)
            c0, c1 = max(0, c - half), min(W - 1, c + half)
            inside = sum(1 for (ar, ac) in positions if r0 <= ar <= r1 and c0 <= ac <= c1)
            denom = free_in(r0, r1, c0, c1)
            total += inside / denom
            count += 1
    return total / count


def reference_bfs_distances(g: Graph, source: str) -> dict[str, int]:
    """Hop distance from source to every vertex of its component, by a
    full breadth-first search over g.neighbors: the reference for
    LazyDistances."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_prioritized_plan(request: PlanRequest) -> Schedule:
    """prioritized_plan with each goal's distances found up front by
    reference_bfs_distances, a linear scan over the parked goals at
    every search step and a scan over the goal's reserved timesteps at
    every pop: the reference.

    Earlier agents' paths are reserved (vertices, edge transitions, and
    their goal forever after arrival). Raises PlanningError when an
    agent has no conflict-free route within the horizon cap.
    """
    g = request.graph
    names = [f"a{i}" for i in range(len(request.starts))]
    reserved_vertex: set[tuple[str, int]] = set()
    reserved_edge: set[tuple[int, str, str]] = set()
    parked: list[tuple[str, int]] = []  # (vertex, resting from timestep)
    max_reserved_t = 0
    paths: list[list[str]] = []

    def blocked(v: str, t: int) -> bool:
        if (v, t) in reserved_vertex:
            return True
        return any(pv == v and t >= pt for pv, pt in parked)

    for i, (start, goal) in enumerate(zip(request.starts, request.goals)):
        dist = reference_bfs_distances(g, goal)
        if start not in dist:
            raise PlanningError(names[i], f"goal {goal!r} unreachable from start {start!r}")

        def goal_free_from(t: int) -> bool:
            if any(pv == goal for pv, _ in parked):
                return False
            return not any((goal, tt) in reserved_vertex for tt in range(t, max_reserved_t + 1))

        startstate = (start, 0)
        visited = {startstate}
        parent: dict[tuple[str, int], tuple[str, int] | None] = {startstate: None}
        heap: list[tuple[int, int, str, int]] = [(dist[start], dist[start], start, 0)]
        found = None
        while heap:
            f, h, v, t = heapq.heappop(heap)
            if v == goal and goal_free_from(t):
                found = (v, t)
                break
            if t >= request.horizon:
                continue
            for w in [v] + g.neighbors(v):
                nt = t + 1
                if w not in dist:
                    continue
                if blocked(w, nt):
                    continue
                if (nt - 1, w, v) in reserved_edge:
                    continue
                state = (w, nt)
                if state in visited:
                    continue
                visited.add(state)
                parent[state] = (v, t)
                heapq.heappush(heap, (nt + dist[w], dist[w], w, nt))
        if found is None:
            raise PlanningError(names[i], "no conflict-free path within the horizon cap")

        path = []
        cur: tuple[str, int] | None = found
        while cur is not None:
            path.append(cur[0])
            cur = parent[cur]
        path.reverse()
        arrival = len(path) - 1
        for t, v in enumerate(path):
            reserved_vertex.add((v, t))
            if t > 0:
                reserved_edge.add((t - 1, path[t - 1], v))
        parked.append((goal, arrival))
        max_reserved_t = max(max_reserved_t, arrival)
        paths.append(path)

    horizon = max(len(p) - 1 for p in paths)
    agents = []
    for i, path in enumerate(paths):
        padded = path + [request.goals[i]] * (horizon - (len(path) - 1))
        agents.append(AgentRecord(names[i], request.starts[i], request.goals[i], tuple(padded)))
    return Schedule(tuple(agents), horizon)


def reference_noisy_rollout(request: PlanRequest) -> Schedule:
    """noisy_rollout with each goal's distances found up front by
    reference_bfs_distances, a full sort of each greedy step's options
    and a default distance for vertices outside the goal's component:
    the reference."""
    g = request.graph
    rng = random.Random(request.seed)
    n = len(request.starts)
    dists = [reference_bfs_distances(g, goal) for goal in request.goals]
    paths: list[list[str]] = [[s] for s in request.starts]
    current = list(request.starts)

    for _ in range(request.horizon):
        decided_next: set[str] = set()
        decided_moves: set[tuple[str, str]] = set()
        undecided_cells = set(current)
        next_positions: list[str] = []
        for i in range(n):
            here = current[i]
            undecided_cells.discard(here)
            options = [here] + g.neighbors(here)

            def feasible(w: str) -> bool:
                if w in decided_next or w in undecided_cells:
                    return False
                if w != here and (w, here) in decided_moves:
                    return False
                return True

            if rng.random() < request.noise:
                pool = [w for w in options if feasible(w)]
                choice = pool[rng.randrange(len(pool))] if pool else here
            else:
                d = dists[i]
                if here not in d:
                    choice = here
                else:
                    ranked = sorted(options, key=lambda w: (d.get(w, len(g.vertices) + 1), w))
                    choice = ranked[0]
                    if not feasible(choice):
                        choice = here
            decided_next.add(choice)
            if choice != here:
                decided_moves.add((here, choice))
            next_positions.append(choice)
        current = next_positions
        for i in range(n):
            paths[i].append(current[i])
        if all(current[i] == request.goals[i] for i in range(n)):
            break

    horizon = len(paths[0]) - 1
    agents = tuple(
        AgentRecord(f"a{i}", request.starts[i], request.goals[i], tuple(paths[i]))
        for i in range(n)
    )
    return Schedule(agents, horizon)
