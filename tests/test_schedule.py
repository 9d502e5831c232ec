import json
import random
import time
import tracemalloc

import pytest

from mapf_collapse import (
    Graph,
    GridMap,
    Schedule,
    UnknownVertexError,
    UnsupportedScheduleError,
    agent_density,
    cost_moves,
    generate_candidates,
    grid_to_graph,
    isr,
    load_instance,
    save_instance,
    soc,
    validate,
)
from mapf_collapse.candidates import REDUCED, collapse_paths
from mapf_collapse.reduction import reduce_independent_set
from mapf_collapse.schedule import Instance

from helpers import (
    open_grid,
    random_rollout_instance,
    reference_agent_density,
    schedule_from_paths,
    settle_time,
    single_edge_graph,
    triangle_graph,
)


@pytest.fixture
def gadget():
    """Two vertex agents plus one edge agent: the smallest reduction output."""
    return reduce_independent_set(single_edge_graph(), 1)


def kinds(report):
    return [v.kind for v in report.violations]


# ---------------------------------------------------------------- validate


def test_validate_gadget_strict_feasible(gadget):
    report = validate(gadget.schedule, gadget.graph, "strict")
    assert report.feasible and report.violations == ()


def test_validate_edge_collision():
    g = Graph(["A", "B"], [("A", "B")])
    s = schedule_from_paths([["A", "B"], ["B", "A"]])
    report = validate(s, g, "relaxed")
    assert not report.feasible
    assert ("edge-collision", (0, 1), 0) in [
        (v.kind, v.agents, v.timestep) for v in report.violations
    ]


def test_validate_single_wait_agent():
    g = Graph(["A"], [])
    s = schedule_from_paths([["A", "A", "A"]])
    assert validate(s, g, "strict").feasible


def test_validate_vertex_collision():
    g = Graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    s = schedule_from_paths([["A", "B"], ["C", "B"]])
    report = validate(s, g, "relaxed")
    assert "vertex-collision" in kinds(report)


def test_validate_start_mismatch_and_goal_stop():
    g = Graph(["A", "B"], [("A", "B")])
    s = schedule_from_paths([["A", "B"]], starts=["B"], goals=["A"])
    report = validate(s, g, "strict")
    assert kinds(report) == ["start-mismatch", "goal-stop"]
    relaxed = validate(s, g, "relaxed")
    assert kinds(relaxed) == ["start-mismatch"]


def test_validate_disconnected_step():
    g = Graph(["A", "B", "C"], [("A", "B")])
    s = schedule_from_paths([["A", "C"]])
    assert "disconnected-step" in kinds(validate(s, g, "relaxed"))


def test_validate_duplicate_start_and_goal():
    g = Graph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    s = schedule_from_paths(
        [["A", "B"], ["C", "B"]], starts=["A", "A"], goals=["B", "B"]
    )
    strict = kinds(validate(s, g, "strict"))
    assert "duplicate-start" in strict and "duplicate-goal" in strict
    relaxed = kinds(validate(s, g, "relaxed"))
    assert "duplicate-start" in relaxed and "duplicate-goal" not in relaxed


def test_validate_agent_may_pass_through_goal(gadget):
    # vertex agents sit on their goal at t=0, leave, and return at T
    assert validate(gadget.schedule, gadget.graph, "strict").feasible


def test_validate_unknown_vertex_raises():
    g = Graph(["A"], [])
    s = schedule_from_paths([["A", "Z"]])
    with pytest.raises(UnknownVertexError):
        validate(s, g, "strict")


def test_validate_pure(gadget):
    r1 = validate(gadget.schedule, gadget.graph, "strict")
    r2 = validate(gadget.schedule, gadget.graph, "strict")
    assert r1 == r2


def test_validate_runtime_contract():
    # 64 agents, T = 512: one agent per row shuttling on its own corridor
    height, width, T = 64, 8, 512
    grid = open_grid(height, width)
    g = grid_to_graph(grid)
    paths = []
    for r in range(height):
        row = [f"r{r}c{(t % 2)}" for t in range(T + 1)]
        paths.append(row)
    s = schedule_from_paths(paths)
    t0 = time.monotonic()
    report = validate(s, g, "strict")
    assert report.feasible
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------- metrics


def test_cost_moves_gadget(gadget):
    assert cost_moves(gadget.schedule) == 10


def test_cost_moves_all_wait():
    s = schedule_from_paths([["A", "A", "A"], ["B", "B", "B"]])
    assert cost_moves(s) == 0


def test_cost_moves_triangle_reduction():
    red = reduce_independent_set(triangle_graph(), 1)
    assert cost_moves(red.schedule) == 24


def test_soc_gadget(gadget):
    assert soc(gadget.schedule) == 18


def test_soc_resting_agent_contributes_zero():
    s = schedule_from_paths([["A", "A", "A", "A"]])
    assert soc(s) == 0


def test_soc_after_collapse(gadget):
    # collapse the first vertex agent and the first edge-agent option
    cands = generate_candidates(gadget.schedule, REDUCED)
    acts = [cands.actions.index((0, 0, 6)), cands.actions.index((2, 0, 4))]
    assert [cands.vertices[i] for i in acts] == ["x_u1", "a_e1"]
    collapsed = collapse_paths(gadget.schedule, cands, acts)
    assert soc(collapsed) == 12
    assert cost_moves(collapsed) == 4


def test_settle_time_never_settled():
    # an agent off its goal at the horizon counts T, even if it passed it
    assert settle_time(("A", "B", "A"), "B") == 2
    assert soc(schedule_from_paths([["A", "B", "A"]], goals=["B"])) == 2


def test_isr_fully_solved(gadget):
    assert isr(gadget.schedule) == 1.0


def test_isr_half():
    s = schedule_from_paths([["A", "B"], ["C", "C"]], goals=["B", "D"])
    g = Graph(["A", "B", "C", "D"], [("A", "B"), ("C", "D")])
    assert validate(s, g, "relaxed").feasible
    assert isr(s) == 0.5


# ---------------------------------------------------------------- density


def test_agent_density_isolated_agent():
    grid = open_grid(32, 32)
    s = schedule_from_paths([["r16c16", "r16c15"]])
    assert agent_density(s, grid) == pytest.approx(1 / 121)


def test_agent_density_adjacent_pair():
    grid = open_grid(32, 32)
    s = schedule_from_paths([["r16c16"], ["r16c17"]])
    assert agent_density(s, grid) == pytest.approx(2 / 121)


def test_agent_density_corner_clip():
    grid = open_grid(32, 32)
    s = schedule_from_paths([["r0c0"]])
    assert agent_density(s, grid) == pytest.approx(1 / 36)


def test_agent_density_counts_agents_sharing_a_cell_once_each():
    grid = open_grid(32, 32)
    s = schedule_from_paths([["r16c16"], ["r16c16"], ["r16c17"]])
    assert agent_density(s, grid) == pytest.approx(3 / 121)


@pytest.mark.parametrize("vertex", ["r4c0", "r40c0", "r0c4", "r1c1"])
def test_agent_density_rejects_vertex_that_is_not_a_free_cell(vertex):
    grid = GridMap(4, 4, frozenset({(1, 1)}))
    s = schedule_from_paths([["r0c0", vertex, "r0c0"]])
    with pytest.raises(UnsupportedScheduleError, match=vertex):
        agent_density(s, grid)


def test_agent_density_rejects_abstract_schedule():
    s = schedule_from_paths([["A", "A"]])
    with pytest.raises(UnsupportedScheduleError):
        agent_density(s, open_grid(4, 4))


def test_agent_density_builds_bands_for_visited_rows_and_columns_only():
    # one band per map column of a 1 x 20,000 map would take tens of MB
    grid = GridMap(1, 20_000, frozenset())
    s = schedule_from_paths([[f"r0c{c}" for c in range(5)]])
    tracemalloc.start()
    try:
        density = agent_density(s, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density == reference_agent_density(s, grid)
    assert peak < 1_000_000


def test_agent_density_rejects_even_fov():
    s = schedule_from_paths([["r0c0"]])
    with pytest.raises(ValueError):
        agent_density(s, open_grid(4, 4), fov=10)


# ------------------------------------------------------- metric properties


def test_metrics_invariant_under_agent_reorder():
    rng = random.Random(11)
    for _ in range(10):
        s, g, _ = random_rollout_instance(rng)
        perm = list(range(s.n_agents))
        rng.shuffle(perm)
        reordered = Schedule(tuple(s.agents[i] for i in perm), s.horizon)
        assert cost_moves(reordered) == cost_moves(s)
        assert soc(reordered) == soc(s)
        assert isr(reordered) == pytest.approx(isr(s))


def test_cost_lower_bound_when_solved():
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        s, g, _ = random_rollout_instance(rng, noise=0.3, horizon=14)
        if isr(s) < 1.0 or not validate(s, g, "strict").feasible:
            continue
        lower = sum(
            g.bfs_distances(ag.start).get(ag.goal, 0) for ag in s.agents
        )
        assert cost_moves(s) >= lower
        checked += 1


# ---------------------------------------------------------- instance JSON


def test_instance_json_round_trip(tmp_path, gadget):
    inst = Instance(gadget.graph, gadget.schedule)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert loaded.graph == inst.graph
    assert loaded.schedule == inst.schedule


def test_instance_with_map_file(tmp_path):
    map_path = tmp_path / "tiny.map"
    map_path.write_text("type octile\nheight 1\nwidth 3\nmap\n...\n")
    data = {
        "graph": {"map_file": "tiny.map"},
        "horizon": 2,
        "agents": [
            {"name": "a0", "start": "r0c0", "goal": "r0c2", "path": ["r0c0", "r0c1", "r0c2"]}
        ],
    }
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(data))
    inst = load_instance(str(inst_path))
    assert inst.grid == GridMap(1, 3, frozenset())
    assert inst.map_name == "tiny"
    assert validate(inst.schedule, inst.graph, "strict").feasible


def test_instance_rejects_bad_horizon(tmp_path):
    from mapf_collapse import InstanceFormatError

    data = {
        "graph": {"vertices": ["A"], "edges": []},
        "horizon": 3,
        "agents": [{"name": "a0", "start": "A", "goal": "A", "path": ["A", "A"]}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError):
        load_instance(str(p))
