import itertools
import random

import pytest

from mapf_collapse import (
    CapExceededError,
    Graph,
    cost_moves,
    generate_candidates,
    validate,
    verify_roundtrip,
)
from mapf_collapse.candidates import REDUCED
from mapf_collapse.reduction import BLOCK, reduce_independent_set

from helpers import candidate_rows, single_edge_graph, square_graph, triangle_graph


def test_reduce_single_edge_matches_gadget():
    red = reduce_independent_set(single_edge_graph(), 1)
    assert red.schedule.n_agents == 3
    assert red.schedule.horizon == 6
    assert red.c0 == 10 and red.beta == 4
    a1, a2, b = red.schedule.agents
    assert a1.path == ("x_u1",) + ("p_u1",) * 5 + ("x_u1",)
    assert a2.path == ("x_u2",) + ("p_u2",) * 5 + ("x_u2",)
    assert b.path == ("a_e1", "x_u1", "b_e1", "c_e1", "a_e1", "x_u2", "b_e1")


def test_reduce_triangle():
    red = reduce_independent_set(triangle_graph(), 1)
    assert red.schedule.n_agents == 6
    assert red.schedule.horizon == 20  # all paths have 21 positions
    assert red.c0 == 24 and red.beta == 10


def test_reduce_triangle_k2_beta():
    assert reduce_independent_set(triangle_graph(), 2).beta == 8


def test_reduce_refuses_edgeless_graph():
    with pytest.raises(CapExceededError):
        reduce_independent_set(Graph(["u1", "u2"], []), 1)


def test_reduce_rejects_bad_k():
    with pytest.raises(ValueError):
        reduce_independent_set(single_edge_graph(), 0)
    with pytest.raises(ValueError):
        reduce_independent_set(single_edge_graph(), 3)


def test_reduce_output_strictly_feasible_random_graphs():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 6)
        names = [f"u{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        m = rng.randint(1, len(pairs))
        h = Graph(names, rng.sample(pairs, m))
        red = reduce_independent_set(h, 1)
        report = validate(red.schedule, red.graph, "strict")
        assert report.feasible, report.violations
        assert red.c0 == cost_moves(red.schedule) == 2 * n + 6 * red.m
        assert red.schedule.horizon == BLOCK * red.m - 1


def test_reduced_candidates_shape_per_agent():
    """Vertex agents offer one 2-move collapse; edge agents only 4-move
    collapses that split into the two block options by effect."""
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(2, 5)
        names = [f"u{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        h = Graph(names, rng.sample(pairs, rng.randint(1, len(pairs))))
        red = reduce_independent_set(h, 1)
        cands = generate_candidates(red.schedule, REDUCED)
        rows = candidate_rows(cands)
        for u, agent_idx in red.vertex_agents.items():
            acts = [rows[i] for i in cands.per_agent.get(agent_idx, ())]
            assert [(a, b, w) for _, a, b, _, w in acts] == [(0, red.schedule.horizon, 2)]
            assert acts[0][3] == f"x_{u}"
        for r, agent_idx in enumerate(red.edge_agents, start=1):
            theta = BLOCK * (r - 1)
            acts = [rows[i] for i in cands.per_agent.get(agent_idx, ())]
            assert all(w == 4 for *_, w in acts)
            # every positive action is equivalent to one of the two block
            # collapses: a-endpoint ones end at theta+4, b-endpoint ones
            # start at theta+2
            a_side = [(a, b) for _, a, b, x, _ in acts if x == f"a_e{r}"]
            b_side = [(a, b) for _, a, b, x, _ in acts if x == f"b_e{r}"]
            assert len(acts) == len(a_side) + len(b_side)
            assert a_side and b_side
            assert all(b == theta + 4 and a <= theta for a, b in a_side)
            assert all(a == theta + 2 and b >= theta + 6 for a, b in b_side)
            # the two sides overlap pairwise, so at most one fires per agent
            for xa, xb in a_side:
                for ya, yb in b_side:
                    assert xa <= yb and ya <= xb


def test_roundtrip_single_edge():
    rep = verify_roundtrip(single_edge_graph(), 1)
    assert rep.agree
    assert rep.opt_cost == 4 and rep.beta == 4 and rep.alpha == 1


def test_roundtrip_triangle_k2():
    rep = verify_roundtrip(triangle_graph(), 2)
    assert rep.agree
    assert rep.opt_cost == 10 and rep.beta == 8 and rep.alpha == 1


def test_roundtrip_square_k2():
    rep = verify_roundtrip(square_graph(), 2)
    assert rep.agree
    assert rep.alpha == 2
    assert rep.opt_cost == 12  # c0=32, m=4: 32 - 16 - 4


def test_roundtrip_alpha_recovery_small_graphs():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randint(2, 6)
        names = [f"u{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        h = Graph(names, rng.sample(pairs, rng.randint(1, len(pairs))))
        for k in range(1, n + 1):
            rep = verify_roundtrip(h, k)
            assert rep.agree
            assert rep.alpha_from_cost == rep.alpha
