import random

import pytest

from mapf_collapse import (
    cost_moves,
    generate_candidates,
    validate,
)
from mapf_collapse.candidates import (
    EXHAUSTIVE,
    REDUCED,
    aba_prefilter_detailed,
    collapse_paths,
)
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    candidate_rows,
    crowded_schedules,
    random_rollout_instance,
    reference_aba_prefilter,
    schedule_from_paths,
    single_edge_graph,
)


# ------------------------------------------------------------- generation


def test_exhaustive_aaabaaa():
    s = schedule_from_paths([list("AAABAAA")])
    cands = generate_candidates(s, EXHAUSTIVE)
    a_actions = [i for i, x in enumerate(cands.vertices) if x == "A"]
    assert len(a_actions) == 15  # C(6,2) pairs over the six A visits
    assert len(cands.actions) == 15  # B appears once: no pair


def test_reduced_aaabaaa():
    s = schedule_from_paths([list("AAABAAA")])
    cands = generate_candidates(s, REDUCED)
    got = {(a, b) for _, a, b in cands.actions}
    assert got == {(2, 4)}
    assert got < {(0, 4), (0, 6), (2, 4), (2, 6)}
    assert all(w == 2 for w in cands.weights)


def test_reduced_endpoint_pairs_before_pruning():
    # run endpoints of AAABAAA are {0,2,4,6}: C(4,2) pairs, two zero-weight
    s = schedule_from_paths([list("AAABAAA")])
    exhaustive = generate_candidates(s, EXHAUSTIVE)
    endpoints = {0, 2, 4, 6}
    endpoint_pairs = [
        c for c in candidate_rows(exhaustive) if c[1] in endpoints and c[2] in endpoints and c[3] == "A"
    ]
    assert len(endpoint_pairs) == 6
    reduced = generate_candidates(s, REDUCED)
    # zero-weight endpoint pairs dropped, and the four pairs across the
    # two runs share one candidate
    assert len(reduced.actions) == 1


def test_reduced_edge_agent_block():
    red = reduce_independent_set(single_edge_graph(), 1)
    cands = generate_candidates(red.schedule, REDUCED)
    edge_actions = [(a, b, x, w) for agent, a, b, x, w in candidate_rows(cands) if agent == 2]
    assert edge_actions == [(0, 4, "a_e1", 4), (2, 6, "b_e1", 4)]


def test_reduced_constant_path_empty():
    s = schedule_from_paths([["A", "A", "A", "A"]])
    cands = generate_candidates(s, REDUCED)
    assert cands.actions == cands.vertices == cands.weights == ()


def test_candidates_sorted_canonically():
    rng = random.Random(2)
    for _ in range(10):
        s, _, _ = random_rollout_instance(rng)
        for mode in (REDUCED, EXHAUSTIVE):
            cands = generate_candidates(s, mode)
            keys = list(cands.actions)
            assert keys == sorted(keys)
            assert len(cands.vertices) == len(cands.weights) == len(keys)
            for agent, idxs in cands.per_agent.items():
                assert all(cands.actions[i][0] == agent for i in idxs)


def test_reduced_subset_of_exhaustive():
    rng = random.Random(4)
    for _ in range(25):
        s, _, _ = random_rollout_instance(rng)
        exh = {c[:4]: c[4] for c in candidate_rows(generate_candidates(s, EXHAUSTIVE))}
        for c in candidate_rows(generate_candidates(s, REDUCED)):
            assert exh[c[:4]] == c[4]


def test_reduced_candidate_stands_for_every_exhaustive_one():
    rng = random.Random(13)
    schedules = [random_rollout_instance(rng)[0] for _ in range(25)] + list(crowded_schedules())
    for s in schedules:
        reduced_set = generate_candidates(s, REDUCED)
        exhaustive_set = generate_candidates(s, EXHAUSTIVE)
        reduced = list(enumerate(candidate_rows(reduced_set)))
        for ci, (agent, a, b, x, w) in enumerate(candidate_rows(exhaustive_set)):
            if w == 0:
                continue
            standins = [
                ri
                for ri, (r_agent, ra, rb, rx, rw) in reduced
                if (r_agent, rx, rw) == (agent, x, w) and a <= ra and rb <= b
            ]
            assert len(standins) == 1
            assert collapse_paths(s, reduced_set, standins) == collapse_paths(s, exhaustive_set, [ci])
        for _, (r_agent, ra, rb, _, rw) in reduced:
            for _, (q_agent, qa, qb, _, qw) in reduced:
                nested = qa <= ra and rb <= qb and (qa, qb) != (ra, rb)
                assert not (q_agent == r_agent and qw == rw and nested)


def test_single_action_application_effect():
    rng = random.Random(9)
    for _ in range(25):
        s, _, _ = random_rollout_instance(rng)
        cands = generate_candidates(s, REDUCED)
        for i, (agent, a, b, x, w) in enumerate(candidate_rows(cands)):
            applied = collapse_paths(s, cands, [i])
            before, after = s.agents[agent].path, applied.agents[agent].path
            for t in range(s.horizon + 1):
                if t <= a or t >= b:
                    assert after[t] == before[t]
                else:
                    assert after[t] == x
            assert cost_moves(s) - cost_moves(applied) == w
            for j in range(s.n_agents):
                if j != agent:
                    assert applied.agents[j].path == s.agents[j].path


def test_invalid_mode_rejected():
    s = schedule_from_paths([["A", "A"]])
    with pytest.raises(ValueError):
        generate_candidates(s, "everything")


# ------------------------------------------------------------- aba filter


def test_aba_oscillation_smoothed():
    s = schedule_from_paths([["A", "B", "A", "B", "A"]])
    filtered, passes = aba_prefilter_detailed(s)
    assert filtered.agents[0].path == ("A", "A", "A", "A", "A")
    assert cost_moves(s) - cost_moves(filtered) == 4
    assert passes == 2  # one rewriting pass plus the fixpoint check


def test_aba_blocked_by_occupant():
    # the blocker passes through A without an ABA pattern of its own
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "D"]])
    filtered = aba_prefilter_detailed(s)[0]
    assert filtered.agents[0].path == ("A", "B", "A")
    assert filtered.agents[1].path == ("C", "A", "D")


def test_aba_rewrite_unblocks_neighbor():
    # removing the second agent's own oscillation frees A for the first
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "C"]])
    filtered = aba_prefilter_detailed(s)[0]
    assert filtered.agents[0].path == ("A", "A", "A")
    assert filtered.agents[1].path == ("C", "C", "C")


def test_aba_triple_removed_by_a_later_rewrite_stays_removed():
    # A,B,A at step 1 is blocked in pass 1, then the rewrite of B,A,B at
    # step 2 turns it into A,B,B; once the blocker leaves A in pass 1, it
    # must not be rewritten in pass 2
    s = schedule_from_paths([["A", "B", "A", "B"], ["C", "A", "C", "C"]])
    filtered, passes = aba_prefilter_detailed(s)
    assert filtered.agents[0].path == ("A", "B", "B", "B")
    assert filtered.agents[1].path == ("C", "C", "C", "C")
    assert passes == 2
    expected, expected_passes = reference_aba_prefilter(s)
    assert (filtered, passes) == (expected, expected_passes)


def test_aba_constant_path_unchanged():
    s = schedule_from_paths([["A", "A", "A"]])
    assert aba_prefilter_detailed(s)[0].agents[0].path == ("A", "A", "A")


def test_aba_respects_pass_cap():
    path = ["v0", "v1"] * 8 + ["v0"]
    s = schedule_from_paths([path])
    capped, passes = aba_prefilter_detailed(s, max_passes=1)
    assert passes == 1
    full, _ = aba_prefilter_detailed(s)
    assert cost_moves(full) <= cost_moves(capped)


def test_aba_never_increases_cost_and_stays_valid():
    rng = random.Random(21)
    for _ in range(60):
        s, g, _ = random_rollout_instance(rng, noise=0.6)
        report = validate(s, g, "relaxed")
        assert report.feasible
        filtered = aba_prefilter_detailed(s)[0]
        assert cost_moves(filtered) <= cost_moves(s)
        assert validate(filtered, g, "relaxed").feasible


def test_aba_preserves_strict_feasibility():
    rng = random.Random(33)
    for _ in range(20):
        s, g, _ = random_rollout_instance(rng, noise=0.4, horizon=16)
        if not validate(s, g, "strict").feasible:
            continue
        filtered = aba_prefilter_detailed(s)[0]
        assert validate(filtered, g, "strict").feasible
