import itertools
import json
import random

import pytest

from mapf_collapse import (
    Graph,
    build_model,
    build_relations,
    cost_moves,
    generate_candidates,
    validate,
)
from mapf_collapse.candidates import EXHAUSTIVE, REDUCED, collapse_paths
from mapf_collapse.oracle import brute_force_collapse
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    agent_candidates,
    all_pairs_cross_exclusions,
    crowded_schedules,
    dumped_pairs,
    eager_exclusions_in,
    per_step_dependencies,
    random_rollout_instance,
    reference_runs,
    schedule_from_paths,
    single_edge_graph,
)


def by_tuple(cands):
    return {span: i for i, span in enumerate(cands.actions)}


# --------------------------------------------------------- worked examples


def test_relations_single_edge_gadget():
    red = reduce_independent_set(single_edge_graph(), 1)
    cands = generate_candidates(red.schedule, REDUCED)
    rel = build_relations(cands)
    ids = by_tuple(cands)
    a1, a2 = ids[(0, 0, 6)], ids[(1, 0, 6)]
    b_a, b_b = ids[(2, 0, 4)], ids[(2, 2, 6)]
    assert rel.exclusions_in == ((b_a, b_b),)
    assert rel.exclusions_cross == ()
    deps = {(d.action, d.suitable) for d in rel.dependencies}
    assert deps == {(a1, (b_a,)), (a2, (b_b,))}
    assert rel.invalid == ()


def test_relations_mutual_oscillation_dependency():
    g = Graph(["A", "B", "C"], [("A", "B"), ("C", "A")])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "C"]])
    cands = generate_candidates(s, REDUCED)
    rel = build_relations(cands)
    ids = by_tuple(cands)
    c1, c2 = ids[(0, 0, 2)], ids[(1, 0, 2)]
    deps = {(d.action, d.suitable) for d in rel.dependencies}
    # collapsing onto A parks agent 0 where agent 1 passes at t=1, so
    # y_c1 <= y_c2; the converse collapse parks agent 1 on C, which agent 0
    # never visits, so no reverse implication exists.
    assert deps == {(c1, (c2,))}
    assert rel.invalid == ()


def test_relations_invalid_when_blocker_has_no_candidates():
    g = Graph(["A", "B", "C", "D"], [("A", "B"), ("C", "A"), ("A", "D")])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "D"]])
    cands = generate_candidates(s, REDUCED)
    rel = build_relations(cands)
    assert len(cands.actions) == 1  # the passer-through repeats no vertex
    assert rel.invalid == (0,)
    assert rel.dependencies == ()


def test_relations_cross_exclusion_same_vertex():
    # two agents' collapses onto A that touch at step 2 conflict: the
    # paths collide there, which the relation builder does not check
    s = schedule_from_paths([["A", "B", "A", "C", "C"], ["D", "D", "A", "B", "A"]])
    cands = generate_candidates(s, REDUCED)
    ids = by_tuple(cands)
    assert build_relations(cands).exclusions_cross == ((ids[(0, 0, 2)], ids[(1, 2, 4)]),)
    # the same collapses one step apart do not
    s = schedule_from_paths([["A", "B", "A", "C", "C", "C"], ["D", "D", "D", "A", "B", "A"]])
    cands = generate_candidates(s, REDUCED)
    assert len(cands.actions) == 2
    assert build_relations(cands).exclusions_cross == ()
    # one agent's overlapping collapses onto A are a within-agent pair only
    s = schedule_from_paths([["A", "B", "A", "B", "A"], ["C", "C", "C", "C", "C"]])
    cands = generate_candidates(s, REDUCED)
    ids = by_tuple(cands)
    rel = build_relations(cands)
    assert (ids[(0, 0, 2)], ids[(0, 2, 4)]) in rel.exclusions_in
    assert rel.exclusions_cross == ()


# ------------------------------------- cross-agent sweep, per-stay dependency scan


@pytest.mark.parametrize("mode", [REDUCED, EXHAUSTIVE])
def test_cross_exclusions_match_all_pairs(mode):
    listed = 0
    for s in crowded_schedules():
        cands = generate_candidates(s, mode)
        rel = build_relations(cands)
        assert rel.exclusions_cross == all_pairs_cross_exclusions(cands)
        listed += len(rel.exclusions_cross)
    assert listed > 0


@pytest.mark.parametrize("mode", [REDUCED, EXHAUSTIVE])
def test_dependencies_match_per_step_scan(mode):
    for s in crowded_schedules():
        cands = generate_candidates(s, mode)
        rel = build_relations(cands)
        assert (rel.dependencies, rel.invalid) == per_step_dependencies(s, cands)


@pytest.mark.parametrize("mode", [REDUCED, EXHAUSTIVE])
def test_invalid_candidates_record_no_dependencies(mode):
    n_invalid = 0
    for s in crowded_schedules():
        cands = generate_candidates(s, mode)
        rel = build_relations(cands)
        assert not {d.action for d in rel.dependencies} & set(rel.invalid)
        if mode == REDUCED:
            # no reduced candidate weighs 0, so only invalid ones are fixed
            assert len(rel.dependencies) == len(build_model(rel, cands).implications)
        n_invalid += len(rel.invalid)
    assert n_invalid > 0


def test_dependency_timestep_is_first_shared_step():
    # agent 1 waits on A over [1, 3]; agent 0's collapse onto A over
    # [0, 4] first meets that stay at step 1, and its suitable set is
    # agent 1's collapse onto C that covers the whole stay
    s = schedule_from_paths([["A", "B", "B", "B", "A"], ["C", "A", "A", "A", "C"]])
    cands = generate_candidates(s, REDUCED)
    rel = build_relations(cands)
    ids = by_tuple(cands)
    assert [(d.action, d.blocker, d.timestep, d.suitable) for d in rel.dependencies] == [
        (ids[(0, 0, 4)], 1, 1, (ids[(1, 0, 4)],))
    ]


# ------------------------------------------------- soundness and exactness


def relation_feasible_subsets(cands, rel):
    """All selections satisfying mutexes, dependencies, and invalid markers."""
    n = len(cands.actions)
    mutex = set(rel.exclusions_in) | set(rel.exclusions_cross)
    deps_of = {}
    for d in rel.dependencies:
        deps_of.setdefault(d.action, []).append(set(d.suitable))
    invalid = set(rel.invalid)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if chosen & invalid:
                continue
            if any((a, b) in mutex for a, b in itertools.combinations(sorted(chosen), 2)):
                continue
            if any(
                not (s & chosen) for c in chosen for s in deps_of.get(c, [])
            ):
                continue
            yield chosen


def test_relation_feasible_selections_validate_and_match_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        s, g, _ = random_rollout_instance(rng, n_agents=rng.choice([2, 3]), horizon=6)
        cands = generate_candidates(s, REDUCED)
        if not 0 < len(cands.actions) <= 12:
            continue
        rel = build_relations(cands)
        best = 0
        for chosen in relation_feasible_subsets(cands, rel):
            applied = collapse_paths(s, cands, chosen)
            report = validate(applied, g, "relaxed")
            assert report.feasible, (s, chosen, report.violations)
            assert not any(v.kind == "edge-collision" for v in report.violations)
            best = max(best, cost_moves(s) - cost_moves(applied))
        oracle = brute_force_collapse(s, g, "relaxed", cap=20)
        assert best == oracle.best_saving
        checked += 1


def test_candidate_set_order_ranges_and_stays():
    # build_relations reads only the candidate set, so its contract is
    # pinned here: actions sorted by (agent, a, b), so that each agent's
    # candidates are one bisect range and the ranges partition them, and
    # every agent's stays on each collapse vertex
    rng = random.Random(29)
    schedules = [random_rollout_instance(rng)[0] for _ in range(10)] + list(crowded_schedules())
    n_stays = 0
    for s, mode in itertools.product(schedules, (REDUCED, EXHAUSTIVE)):
        cands = generate_candidates(s, mode)
        keys = list(cands.actions)
        assert keys == sorted(keys)
        covered = []
        for j in range(s.n_agents):
            own = agent_candidates(cands, j)
            assert all(keys[i][0] == j for i in own)
            covered.extend(own)
        assert covered == list(range(len(keys)))
        expected: dict[str, list[tuple[int, int, int]]] = {}
        for j, ag in enumerate(s.agents):
            for v, first, last in reference_runs(ag.path):
                expected.setdefault(v, []).append((first, last, j))
        vertices = set(cands.vertices)
        assert set(cands.stays) == vertices
        for x in vertices:
            assert cands.stays[x] == sorted(expected[x])
            n_stays += len(cands.stays[x])
    assert n_stays > 0


def test_relations_json_dump_shape():
    red = reduce_independent_set(single_edge_graph(), 1)
    cands = generate_candidates(red.schedule, REDUCED)
    rel = build_relations(cands)
    data = json.loads(json.dumps(rel.to_json_dict()))
    assert set(data) == {"spans", "vertices", "deps", "invalid"}
    assert data["spans"] == [list(span) for span in cands.actions]
    assert data["vertices"] == list(cands.vertices)
    within, cross = dumped_pairs(data)
    assert within == eager_exclusions_in(cands) == ((2, 3),)
    assert cross == all_pairs_cross_exclusions(cands)
    assert {d["c"] for d in data["deps"]} == {0, 1}
