import random

import pytest

from mapf_collapse import (
    CapExceededError,
    Graph,
    brute_force_collapse,
    brute_force_mis,
    cost_moves,
    generate_candidates,
)
from mapf_collapse.candidates import EXHAUSTIVE
from mapf_collapse.oracle import brute_force_over
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    random_rollout_instance,
    schedule_from_paths,
    single_edge_graph,
    square_graph,
    triangle_graph,
)


def test_oracle_single_edge_gadget():
    red = reduce_independent_set(single_edge_graph(), 1)
    result = brute_force_collapse(red.schedule, red.graph, "strict")
    assert result.best_saving == 6
    assert result.enumerated == 5


def test_oracle_mutual_oscillation():
    g = Graph(["A", "B", "C"], [("A", "B"), ("C", "A")])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "C"]])
    result = brute_force_collapse(s, g, "relaxed")
    assert result.best_saving == 4


def test_oracle_all_wait():
    g = Graph(["A", "B"], [("A", "B")])
    s = schedule_from_paths([["A", "A", "A"], ["B", "B", "B"]])
    result = brute_force_collapse(s, g, "strict")
    assert result.best_saving == 0
    assert result.best_selection == ()


def test_oracle_cap_refusal():
    rng = random.Random(55)
    while True:
        s, g, _ = random_rollout_instance(rng, noise=0.8, horizon=10, n_agents=4)
        cands = generate_candidates(s, EXHAUSTIVE)
        positive = sum(1 for w in cands.weights if w > 0)
        if positive > 3:
            with pytest.raises(CapExceededError):
                brute_force_collapse(s, g, "relaxed", cap=3)
            return


def test_oracle_deterministic_selection():
    red = reduce_independent_set(single_edge_graph(), 1)
    r1 = brute_force_collapse(red.schedule, red.graph, "strict")
    r2 = brute_force_collapse(red.schedule, red.graph, "strict")
    assert r1 == r2


def test_oracle_selection_achieves_saving():
    rng = random.Random(61)
    from mapf_collapse.candidates import collapse_paths
    from mapf_collapse import validate

    for _ in range(20):
        s, g, _ = random_rollout_instance(rng, noise=0.5)
        cands = generate_candidates(s, EXHAUSTIVE)
        if sum(1 for w in cands.weights if w > 0) > 20:
            continue
        result = brute_force_collapse(s, g, "relaxed")
        applied = collapse_paths(s, cands, result.best_selection)
        assert validate(applied, g, "relaxed").feasible
        assert cost_moves(s) - cost_moves(applied) == result.best_saving


def test_oracle_touching_pairs_add_nothing():
    # allowing same-agent touching intervals never improves the optimum
    rng = random.Random(67)
    checked = 0
    while checked < 25:
        s, g, _ = random_rollout_instance(rng, noise=0.6)
        cands = generate_candidates(s, EXHAUSTIVE)
        if sum(1 for w in cands.weights if w > 0) > 14:
            continue
        strict_disjoint = brute_force_over(s, g, cands, "relaxed", cap=14)
        touching = brute_force_over(s, g, cands, "relaxed", cap=14, allow_touching=True)
        assert touching.best_saving == strict_disjoint.best_saving
        checked += 1


# ------------------------------------------------------------------- MIS


def test_mis_single_edge():
    assert brute_force_mis(single_edge_graph()) == 1


def test_mis_triangle():
    assert brute_force_mis(triangle_graph()) == 1


def test_mis_square():
    assert brute_force_mis(square_graph()) == 2


def test_mis_isolated_vertices():
    g = Graph(["a", "b", "c"], [])
    assert brute_force_mis(g) == 3


def test_negative_caps_are_usage_errors():
    s = schedule_from_paths([["A", "B"]])
    g = Graph(["A", "B"], [("A", "B")])
    cands = generate_candidates(s, EXHAUSTIVE)
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        brute_force_over(s, g, cands, "relaxed", cap=-1)
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        brute_force_mis(triangle_graph(), cap=-1)
    # 0 is a cap: a graph with a vertex exceeds it
    with pytest.raises(CapExceededError):
        brute_force_mis(triangle_graph(), cap=0)


def test_mis_cap():
    names = [f"v{i}" for i in range(25)]
    with pytest.raises(CapExceededError):
        brute_force_mis(Graph(names, []))
