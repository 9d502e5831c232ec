"""Property tests. Over small seeded rollouts the pipeline's output is
valid, its saving is the oracle's optimum, and its bound is no lower.
Over mutated schedules validate and cost_moves agree with the per-cell
references, and over crowded grid schedules agent_density equals the
pairwise reference to the bit. Over oscillating, crowded paths the ABA
prefilter's triple scan rewrites what the per-cell scan rewrites, in as
many passes, and the move count, settle times and runs read from
validate's move steps equal their per-cell references. Over rollouts
and colliding paths every cross-agent exclusion is implied by the
model's fixed zeros, implications and same-agent overlaps, the
candidate columns are the per-cell scan's, and the dependencies and
invalid candidates are the per-step scan's. Over rollouts in both modes,
prefiltered or not, with selections that bypass the solver, apply
checked against the validated input returns the schedule and moves of
a collapse plus the full validate, or raises the same error. Over
hand-built models, whose spans come in any order, the component split
is the all-pairs union, the exact solve meets the brute force, and the
listed, reference and solver mutex counts agree. Over
malformed files the CLI exits with its documented code, never a
traceback."""

import itertools
import json
import os
import random
import tempfile
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_collapse import (
    CapExceededError,
    ConsistencyError,
    Graph,
    GridMap,
    IlpModel,
    Schedule,
    UnknownVertexError,
    agent_density,
    brute_force_collapse,
    build_model,
    build_relations,
    cell_name,
    cost_moves,
    generate_candidates,
    isr,
    solve_exact,
    validate,
)
from mapf_collapse import pipeline
from mapf_collapse.candidates import EXHAUSTIVE, REDUCED, CandidateSet, aba_prefilter_detailed, collapse_paths
from mapf_collapse.cli import main
from mapf_collapse.ilp import CollapseSolution, _components, _owned
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule
from mapf_collapse.schedule import MODES, RELAXED, move_steps, path_runs, soc_from_moves

from helpers import (
    all_members_components,
    brute_force_model,
    complete_graph,
    edge_instance_json,
    per_step_dependencies,
    random_rollout_instance,
    reference_aba_prefilter,
    reference_agent_density,
    reference_apply,
    reference_candidates,
    reference_cost_moves,
    reference_n_mutex,
    reference_runs,
    reference_validate,
    schedule_from_paths,
    settle_time,
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(3, 5),
    n_agents=st.integers(2, 4),
    horizon=st.integers(4, 12),
    noise=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_pipeline_matches_oracle(seed, size, n_agents, horizon, noise):
    s, g, _ = random_rollout_instance(
        random.Random(seed), height=size, width=size, n_agents=n_agents, horizon=horizon, noise=noise
    )
    config = OptimizeConfig(mode="relaxed", aba_filter=False, time_limit_ms=60000)
    result = optimize_schedule(s, g, config)
    stats = result.stats
    assert validate(result.schedule, g, "relaxed").feasible
    assert stats["optimal"]
    assert stats["upper_bound"] >= stats["saving"]
    # no stage changes a last cell, so the input's ISR is the output's
    assert stats["isr_after"] == isr(result.schedule)
    filtered = optimize_schedule(s, g, OptimizeConfig(mode="relaxed", time_limit_ms=60000))
    assert filtered.stats["isr_after"] == isr(filtered.schedule)
    try:
        oracle = brute_force_collapse(s, g, "relaxed", cap=16)
    except CapExceededError:
        return
    assert stats["saving"] == oracle.best_saving


MUTATIONS = ("same-move", "crowd", "swap", "off-graph", "start", "goal")


@st.composite
def mutated_schedules(draw):
    """(schedule, graph): random paths on a random graph of 1-5 vertices,
    or a feasible rollout, then mutations that make several agents take
    one move at one step, put three or more agents on one vertex, swap
    two agents, step off the graph, or move a start or a goal. Horizon 0
    and zero agents are drawn too."""
    if draw(st.booleans()):
        names = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
        pairs = list(itertools.combinations(names, 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph(names, edges)
        horizon = draw(st.integers(0, 5))
        position = st.sampled_from(names)
        paths = [
            draw(st.lists(position, min_size=horizon + 1, max_size=horizon + 1))
            for _ in range(draw(st.integers(0, 5)))
        ]
    else:
        rng = random.Random(draw(st.integers(0, 2**16)))
        n_agents, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        schedule, graph, _ = random_rollout_instance(rng, n_agents=n_agents, horizon=horizon)
        names = list(graph.vertices)
        horizon = schedule.horizon  # the rollout may stop before the requested horizon
        paths = [list(ag.path) for ag in schedule.agents]
    starts = [p[0] for p in paths]
    goals = [p[-1] for p in paths]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)) if paths else ():
        i, j = (draw(st.integers(0, len(paths) - 1)) for _ in range(2))
        t = draw(st.integers(0, horizon))
        if kind == "same-move" and t < horizon:
            for k in draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=3)):
                paths[k][t : t + 2] = paths[i][t : t + 2]
        elif kind == "crowd":
            v = draw(st.sampled_from(names))
            for k in draw(st.lists(st.integers(0, len(paths) - 1), min_size=3, max_size=5)):
                paths[k][t] = v
        elif kind == "swap" and t < horizon:
            paths[j][t : t + 2] = paths[i][t + 1], paths[i][t]
        elif kind == "off-graph":
            paths[i][t] = f"off{t}"
        elif kind == "start":
            starts[i] = draw(st.sampled_from(names + ["off-start"]))
        elif kind == "goal":
            goals[i] = draw(st.sampled_from(names + ["off-goal"]))
    if not paths:
        return Schedule((), horizon), graph
    return schedule_from_paths(paths, starts, goals), graph


@settings(deadline=None, max_examples=400, derandomize=True)
@given(case=mutated_schedules())
def test_validate_and_cost_moves_match_per_cell_reference(case):
    schedule, graph = case
    assert cost_moves(schedule) == reference_cost_moves(schedule)
    for mode in MODES:
        try:
            expected = reference_validate(schedule, graph, mode)
        except UnknownVertexError as exc:
            with pytest.raises(UnknownVertexError) as raised:
                validate(schedule, graph, mode)
            assert raised.value.args == exc.args
        else:
            assert validate(schedule, graph, mode).to_json_dict() == expected.to_json_dict()


OSCILLATION_VERTICES = ("A", "B", "C", "D")


@st.composite
def oscillating_schedules(draw):
    """1-5 agents over the vertices A-D, horizon 0-12, goals drawn apart
    from the paths. A path is random, or alternates two vertices
    (A,B,A,B,A: nested triples) with random waits and random cells, or
    is another path shifted by one step, or is a blocker: random, but
    with a C,A,C of its own around the middle step of another path's
    A,B,A. A blocker blocks that triple until its own is rewritten, so
    the rewrite of a blocker of a blocker waits for a third pass."""
    horizon = draw(st.integers(0, 12))
    position = st.sampled_from(OSCILLATION_VERTICES)
    paths: list[list[str]] = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "alternating", "shifted", "blocker"]))
        source = draw(st.sampled_from(paths)) if paths else None
        mids = [t for t in range(1, horizon) if source and source[t - 1] == source[t + 1] != source[t]]
        if kind == "blocker" and mids:
            path = draw(st.lists(position, min_size=horizon + 1, max_size=horizon + 1))
            t = draw(st.sampled_from(mids))
            a = source[t - 1]
            c = draw(st.sampled_from([v for v in OSCILLATION_VERTICES if v not in (a, source[t])]))
            path[t - 1 : t + 2] = [c, a, c]
        elif kind == "shifted" and paths:
            path = [draw(position)] + source[:horizon] if draw(st.booleans()) else source[1:] + [draw(position)]
        elif kind == "alternating":
            u, v = draw(st.lists(position, min_size=2, max_size=2, unique=True))
            path = []
            while len(path) <= horizon:
                path.extend([u] * draw(st.integers(1, 2)) if draw(st.integers(0, 4)) else [draw(position)])
                u, v = v, u
            path = path[: horizon + 1]
        else:
            path = draw(st.lists(position, min_size=horizon + 1, max_size=horizon + 1))
        paths.append(path)
    goals = [draw(st.sampled_from([p[-1], *OSCILLATION_VERTICES])) for p in paths]
    return schedule_from_paths(paths, goals=goals)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(schedule=oscillating_schedules(), max_passes=st.sampled_from([1, 2, 3, 16]))
def test_aba_triple_scan_matches_per_cell_reference(schedule, max_passes):
    expected, expected_passes = reference_aba_prefilter(schedule, max_passes)
    for moves in (None, [move_steps(ag.path) for ag in schedule.agents]):
        filtered, passes = aba_prefilter_detailed(schedule, max_passes, moves=moves)
        assert passes == expected_passes
        assert [ag.path for ag in filtered.agents] == [ag.path for ag in expected.agents]
        for before, after in zip(schedule.agents, filtered.agents):
            # a path left as it was keeps its record, so its moves stay valid
            assert (after is before) == (after.path == before.path)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(schedule=oscillating_schedules())
def test_counts_from_move_steps_match_per_cell_reference(schedule):
    moves = validate(schedule, complete_graph(OSCILLATION_VERTICES), RELAXED).moves
    assert list(moves) == [move_steps(ag.path) for ag in schedule.agents]
    assert sum(map(len, moves)) == reference_cost_moves(schedule)
    assert soc_from_moves(schedule, moves) == sum(settle_time(ag.path, ag.goal) for ag in schedule.agents)
    for ag, steps in zip(schedule.agents, moves):
        assert path_runs(ag.path, steps) == reference_runs(ag.path)


@st.composite
def rollout_schedules(draw):
    """Relaxed-feasible rollouts of 2-4 agents on 3x3 to 5x5 grids."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    size, n_agents = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    horizon, noise = draw(st.integers(4, 12)), draw(st.sampled_from([0.3, 0.6, 0.9]))
    return random_rollout_instance(rng, height=size, width=size, n_agents=n_agents, horizon=horizon, noise=noise)[0]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    schedule=st.one_of(rollout_schedules(), oscillating_schedules()),
    mode=st.sampled_from([REDUCED, EXHAUSTIVE]),
)
def test_cross_pairs_are_implied_by_the_model(schedule, mode):
    # c and d collapse onto one vertex over intersecting spans: d's agent
    # stands there inside c's span, so c owns an implication whose
    # members all cover that stay and overlap d, or c is invalid
    cands = generate_candidates(schedule, mode)
    rel = build_relations(cands)
    model = build_model(rel, cands)
    spans = model.spans
    owned = {}
    for owner, suitable in model.implications:
        owned.setdefault(owner, []).append(suitable)

    def overlaps(u, v):
        return spans[u][0] == spans[v][0] and spans[u][1] <= spans[v][2] and spans[v][1] <= spans[u][2]

    def implied(c, d):
        return any(all(overlaps(s, d) for s in suitable) for suitable in owned.get(c, ()))

    for c, d in rel.exclusions_cross:
        assert c in model.fixed_zero or d in model.fixed_zero or implied(c, d) or implied(d, c)
    if len(model.free()) <= 16:
        assert solve_exact(model, None).saving == brute_force_model(model, rel.exclusions_cross)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    schedule=st.one_of(rollout_schedules(), oscillating_schedules()),
    mode=st.sampled_from([REDUCED, EXHAUSTIVE]),
)
def test_dependencies_match_per_step_scan_on_shared_cells(schedule, mode):
    # oscillating paths put several agents on one vertex at one step, so
    # blocking stays of different agents share their first step
    cands = generate_candidates(schedule, mode)
    rel = build_relations(cands)
    assert (rel.dependencies, rel.invalid) == per_step_dependencies(schedule, cands)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    schedule=st.one_of(rollout_schedules(), oscillating_schedules()),
    mode=st.sampled_from([REDUCED, EXHAUSTIVE]),
)
def test_candidate_columns_match_per_cell_scan(schedule, mode):
    cands = generate_candidates(schedule, mode)
    assert (cands.actions, cands.vertices, cands.weights) == reference_candidates(schedule, mode)


@st.composite
def selections_on_rollouts(draw):
    """(input, graph, mode, input move counts, working, candidates,
    solution): a rollout made feasible in either mode by taking each
    last cell as the goal, then itself or its prefiltered rewrite as the
    working schedule. Its reduced candidates plus up to two pairs of touching
    spans a..m..b of one agent, each collapsing onto the vertex at a, m
    or b, so a pair may meet at two vertices and a span may rewrite the
    first or the last cell. The solver is bypassed: any nonempty set
    of them is selected, which can break an implication or overlap on
    one agent, and the claimed saving is the true one, the selected
    weights' sum, or one off the true one."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    size, n_agents = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    horizon, noise = draw(st.integers(2, 12)), draw(st.sampled_from([0.3, 0.6, 0.9]))
    rollout, graph, _ = random_rollout_instance(rng, size, size, n_agents, horizon, noise)
    schedule = schedule_from_paths([ag.path for ag in rollout.agents])
    mode = draw(st.sampled_from(MODES))
    moves = validate(schedule, graph, mode).moves
    working = schedule
    if draw(st.booleans()):
        working = aba_prefilter_detailed(schedule, moves=moves)[0]
    cands = generate_candidates(working, REDUCED)
    rows = list(zip(cands.actions, cands.vertices, cands.weights))
    T = schedule.horizon
    for _ in range(draw(st.integers(0, 2)) if T >= 2 else 0):
        agent = draw(st.integers(0, schedule.n_agents - 1))
        a, m, b = sorted(draw(st.lists(st.integers(0, T), min_size=3, max_size=3, unique=True)))
        path = working.agents[agent].path
        ends = st.sampled_from([path[a], path[m], path[b]])
        for lo, hi in ((a, m), (m, b)):
            rows.append(((agent, lo, hi), draw(ends), sum(map(ne, path[lo:hi], path[lo + 1 : hi + 1]))))
    actions, vertices, weights = (tuple(column) for column in zip(*rows)) if rows else ((), (), ())
    cands = CandidateSet(actions, vertices, weights, {}, {})
    selected = frozenset(draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)) if rows else ())
    true = cost_moves(working) - cost_moves(collapse_paths(working, cands, selected))
    saving = draw(st.sampled_from([true, sum(weights[i] for i in selected), true - 1, true + 1]))
    counts = list(map(len, moves))
    return schedule, graph, mode, counts, working, cands, CollapseSolution(selected, saving, optimal=False)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(case=selections_on_rollouts())
def test_checked_apply_matches_full_validation(case):
    schedule, graph, mode, counts, working, cands, solution = case

    def outcome(apply):
        try:
            return apply(working, cands, solution, graph, mode, validated=(schedule, counts))
        except ConsistencyError as exc:
            return str(exc)

    assert outcome(pipeline.apply_solution) == outcome(reference_apply)


@st.composite
def hand_built_models(draw):
    """IlpModels not made by build_model: 0-9 variables over 1-3 agents
    with spans in any order, zero weights allowed, random fixed zeros,
    and implications whose owner or members may be fixed to zero and
    whose member set may be empty."""
    n_vars, n_agents = draw(st.integers(0, 9)), draw(st.integers(1, 3))
    spans = []
    for _ in range(n_vars):
        a = draw(st.integers(0, 8))
        spans.append((draw(st.integers(0, n_agents - 1)), a, draw(st.integers(a, a + 5))))
    weights = draw(st.lists(st.integers(0, 5), min_size=n_vars, max_size=n_vars))
    implications = []
    if n_vars:
        variable = st.integers(0, n_vars - 1)
        fixed = draw(st.frozensets(variable))
        for _ in range(draw(st.integers(0, 4))):
            owner = draw(variable)
            implications.append((owner, tuple(draw(st.lists(variable, unique=True, max_size=4)))))
    else:
        fixed = frozenset()
    return IlpModel(tuple(weights), tuple(implications), fixed, tuple(spans))


@settings(deadline=None, max_examples=500, derandomize=True)
@given(model=hand_built_models())
def test_solve_on_hand_built_models(model):
    # the chain sweep sorts the spans itself, so no candidate order is assumed
    assert _components(model, _owned(model)) == all_members_components(model)
    sol = solve_exact(model, None)
    assert sol.optimal and sol.saving == sol.upper_bound == brute_force_model(model)
    assert sol.n_mutex == len(model.mutex) == reference_n_mutex(model)


@st.composite
def density_cases(draw):
    """(schedule, grid, fov): 1-9 agents on a grid of 1-14 cells per side
    with about 20% of its cells blocked, horizon 0-8. Every position is
    drawn from a few free cells, so agents often share one. fov 11 and
    13 give windows larger than the smaller maps."""
    height, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2**16)))
    cells = [(r, c) for r in range(height) for c in range(width)]
    blocked = {rc for rc in cells[1:] if rng.random() < 0.2}  # cells[0] stays free
    free = [cell_name(r, c) for r, c in cells if (r, c) not in blocked]
    pool = draw(st.lists(st.sampled_from(free), min_size=1, max_size=12))
    horizon = draw(st.integers(0, 8))
    position = st.sampled_from(pool)
    paths = [
        draw(st.lists(position, min_size=horizon + 1, max_size=horizon + 1))
        for _ in range(draw(st.integers(1, 9)))
    ]
    fov = draw(st.sampled_from([1, 3, 5, 11, 13]))
    return schedule_from_paths(paths), GridMap(height, width, frozenset(blocked)), fov


@settings(deadline=None, max_examples=300, derandomize=True)
@given(case=density_cases())
def test_agent_density_equals_pairwise_reference(case):
    schedule, grid, fov = case
    assert agent_density(schedule, grid, fov) == reference_agent_density(schedule, grid, fov)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
graph_values = st.fixed_dictionaries({"vertices": json_values, "edges": json_values}) | json_values

INSTANCE_FIELDS = ("graph", "vertices", "edges", "map_file", "horizon", "agents", "agent", "path", "start", "name")


def write_json_file(directory, name, value):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    return path


@settings(deadline=None, max_examples=100, derandomize=True)
@given(field=st.sampled_from(INSTANCE_FIELDS), value=json_values)
def test_malformed_instance_field_exits_0_or_2(field, value):
    data = edge_instance_json()
    if field in ("vertices", "edges"):
        data["graph"][field] = value
    elif field == "map_file":
        data["graph"] = {"map_file": value}
    elif field in ("graph", "horizon", "agents"):
        data[field] = value
    elif field == "agent":
        data["agents"][0] = value
    else:
        data["agents"][0][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json_file(tmp, "inst.json", data)
        assert main(["validate", path]) in (0, 2)
        assert main(["optimize", path, "--mode", "relaxed"]) in (0, 2)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(value=graph_values)
def test_arbitrary_graph_file_reduce_exits_0_2_or_4(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json_file(tmp, "h.json", value)
        assert main(["reduce", path, "--k", "1", "-o", os.path.join(tmp, "out.json")]) in (0, 2, 4)
