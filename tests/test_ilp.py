import itertools
import json
import random
import sys
import threading

import pytest

from mapf_collapse import (
    ConsistencyError,
    Graph,
    IlpModel,
    apply_solution,
    build_model,
    build_relations,
    cost_moves,
    generate_candidates,
    soc,
    solve_exact,
    solve_greedy,
    validate,
)
from mapf_collapse import ilp
from mapf_collapse.candidates import EXHAUSTIVE, REDUCED
from mapf_collapse.ilp import CollapseSolution, _Agent, _components, _owned
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule
from mapf_collapse.oracle import brute_force_collapse
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    all_members_components,
    all_pairs_cross_exclusions,
    changed_rows_steps,
    brute_force_model,
    crowded_schedules,
    dumped_pairs,
    eager_exclusions_in,
    eager_mutex,
    pairwise_dominated,
    positive_exhaustive_count,
    reference_apply,
    validated_input,
    random_rollout_instance,
    reference_n_mutex,
    schedule_from_paths,
    single_edge_graph,
)


def gadget_pipeline():
    red = reduce_independent_set(single_edge_graph(), 1)
    cands = generate_candidates(red.schedule, REDUCED)
    rel = build_relations(cands)
    return red, cands, build_model(rel, cands)


def mutual_oscillation():
    g = Graph(["A", "B", "C"], [("A", "B"), ("C", "A")])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "C"]])
    cands = generate_candidates(s, REDUCED)
    rel = build_relations(cands)
    return s, g, cands, build_model(rel, cands)


# ------------------------------------------------------------- build_model


def test_build_model_gadget_shape():
    _, cands, model = gadget_pipeline()
    assert model.n_vars == 4
    assert len(model.mutex) == 1
    assert len(model.implications) == 2
    assert model.fixed_zero == frozenset()


def test_build_model_empty():
    s = schedule_from_paths([["A", "A"]])
    cands = generate_candidates(s, REDUCED)
    model = build_model(build_relations(cands), cands)
    assert model.n_vars == 0


def test_build_model_invalid_action_fixed():
    g = Graph(["A", "B", "C", "D"], [("A", "B"), ("C", "A"), ("A", "D")])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "D"]])
    cands = generate_candidates(s, REDUCED)
    model = build_model(build_relations(cands), cands)
    # the passer-through agent repeats no vertex, so only the oscillating
    # agent contributes a variable, and it is unusable
    assert model.n_vars == 1
    assert model.fixed_zero == frozenset({0})
    assert model.mutex == () and model.implications == ()


def test_build_model_fixes_zero_weight_exhaustive_candidates():
    s = schedule_from_paths([list("AAABAAA")])
    cands = generate_candidates(s, EXHAUSTIVE)
    model = build_model(build_relations(cands), cands)
    for i, w in enumerate(cands.weights):
        assert (w == 0) == (i in model.fixed_zero)
    assert all(model.weights[i] >= 1 for i in range(model.n_vars) if i not in model.fixed_zero)


# ------------------------------------------------------------- solve_exact


def test_solve_exact_gadget():
    red, cands, model = gadget_pipeline()
    sol = solve_exact(model, 10.0)
    assert sol.saving == 6 and sol.optimal
    picked = {cands.actions[i] for i in sol.selected}
    assert picked in ({(0, 0, 6), (2, 0, 4)}, {(1, 0, 6), (2, 2, 6)})


def test_solve_exact_mutual_oscillation():
    s, g, cands, model = mutual_oscillation()
    sol = solve_exact(model, 10.0)
    assert sol.saving == 4
    assert sol.selected == frozenset({0, 1})


def test_solve_exact_empty_model():
    model = IlpModel((), (), frozenset(), ())
    sol = solve_exact(model, 1.0)
    assert sol.saving == 0 and sol.selected == frozenset() and sol.optimal


def test_solve_exact_deterministic():
    _, _, model = gadget_pipeline()
    a = solve_exact(model, 10.0)
    b = solve_exact(model, 10.0)
    assert a.selected == b.selected and a.saving == b.saving
    assert a.nodes_explored == b.nodes_explored


def test_solve_exact_anytime_zero_budget():
    _, cands, model = gadget_pipeline()
    sol = solve_exact(model, 0.0)
    # whatever the limit, the produced selection satisfies all constraints
    assert sol.saving >= 0
    for a, b in model.mutex:
        assert not (a in sol.selected and b in sol.selected)
    for owner, suitable in model.implications:
        if owner in sol.selected:
            assert any(s in sol.selected for s in suitable)


# ------------------------------------------------------------ solve_greedy


def test_solve_greedy_gadget():
    _, _, model = gadget_pipeline()
    sol = solve_greedy(model)
    assert sol.saving == 6


def test_solve_greedy_unsatisfiable_dependency():
    # the only positive action depends on a fixed-zero action
    model = IlpModel(
        weights=(3, 2),
        implications=((0, (1,)),),
        fixed_zero=frozenset({1}),
        spans=((0, 0, 2), (1, 0, 2)),
    )
    sol = solve_greedy(model)
    # at budget 0 the root check proves it: owner 0 is fixed to 0
    assert sol.saving == 0 and sol.selected == frozenset()
    assert sol.upper_bound == 0 and sol.optimal
    exact = solve_exact(model, 5.0)
    assert exact.saving == 0 and exact.optimal and exact.upper_bound == 0


def test_solve_greedy_unconstrained_takes_everything():
    model = IlpModel((2, 3, 4), (), frozenset(), ((0, 0, 1), (1, 0, 1), (2, 0, 1)))
    sol = solve_greedy(model)
    assert sol.selected == frozenset({0, 1, 2})
    assert sol.saving == 9 and sol.optimal


def test_greedy_respects_constraints_randomized():
    rng = random.Random(37)
    for _ in range(60):
        s, g, _ = random_rollout_instance(rng, noise=0.6)
        cands = generate_candidates(s, REDUCED)
        model = build_model(build_relations(cands), cands)
        sol = solve_greedy(model)
        assert sol.selected.isdisjoint(model.fixed_zero)
        for a, b in model.mutex:
            assert not (a in sol.selected and b in sol.selected)
        for owner, suitable in model.implications:
            if owner in sol.selected:
                assert any(x in sol.selected for x in suitable)
        checked = validated_input(s, g, "relaxed")
        applied, restepped = apply_solution(s, cands, sol, g, "relaxed", validated=checked)
        assert cost_moves(applied) == cost_moves(s) - sol.saving
        assert restepped == changed_rows_steps(applied, s)


# ---------------------------------------------------------- apply_solution


def test_apply_solution_gadget_first_option():
    red, cands, model = gadget_pipeline()
    ids = {span: i for i, span in enumerate(cands.actions)}
    sol = CollapseSolution(frozenset({ids[(0, 0, 6)], ids[(2, 0, 4)]}), 6, True)
    checked = validated_input(red.schedule, red.graph, "strict")
    out, _ = apply_solution(red.schedule, cands, sol, red.graph, "strict", validated=checked)
    assert out.agents[0].path == tuple(["x_u1"] * 7)
    assert out.agents[2].path == ("a_e1",) * 5 + ("x_u2", "b_e1")
    assert cost_moves(out) == 4
    assert soc(out) == 12


def test_apply_solution_empty_selection():
    red, cands, _ = gadget_pipeline()
    sol = CollapseSolution(frozenset(), 0, True)
    checked = validated_input(red.schedule, red.graph, "strict")
    out, _ = apply_solution(red.schedule, cands, sol, red.graph, "strict", validated=checked)
    assert out == red.schedule


def test_apply_solution_mutual_oscillation_both():
    s, g, cands, model = mutual_oscillation()
    sol = solve_exact(model, 5.0)
    out, _ = apply_solution(s, cands, sol, g, "relaxed", validated=validated_input(s, g, "relaxed"))
    assert out.agents[0].path == ("A", "A", "A")
    assert out.agents[1].path == ("C", "C", "C")
    assert cost_moves(out) == 0


def test_apply_solution_rejects_bad_selection():
    s, g, cands, _ = mutual_oscillation()
    checked = validated_input(s, g, "relaxed")
    for selected, saving, message in (
        # only the A-collapse parks agent 0 on the crossing vertex
        ({0}, 2, "infeasible, first violation: Violation(kind='vertex-collision'"),
        ({0, 1}, 3, "saving accounting mismatch: schedule lost 4 moves, solver claimed 3"),
    ):
        bad = CollapseSolution(frozenset(selected), saving, True)
        # the selection fails the check against the validated input and
        # goes through the full validate: the full path's error
        with pytest.raises(ConsistencyError) as fast:
            apply_solution(s, cands, bad, g, "relaxed", validated=checked)
        assert message in str(fast.value)
        with pytest.raises(ConsistencyError) as full:
            reference_apply(s, cands, bad, g, "relaxed", validated=checked)
        assert str(fast.value) == str(full.value)


def test_apply_solution_checks_starts_and_goals_against_the_input():
    # a working schedule whose goal is not the validated input's goes
    # through the full validate, which finds the goal violation
    s, g, cands, _ = mutual_oscillation()
    working = schedule_from_paths([ag.path for ag in s.agents], goals=["B", "C"])
    nothing = CollapseSolution(frozenset(), 0, True)
    with pytest.raises(ConsistencyError, match="kind='goal-stop', agents=\\(0,\\)"):
        apply_solution(working, cands, nothing, g, "strict", validated=validated_input(s, g, "strict"))


def test_checked_apply_does_not_run_the_full_validate(monkeypatch):
    s, g, cands, model = mutual_oscillation()
    sol = solve_exact(model, 5.0)
    checked = validated_input(s, g, "relaxed")
    expected = reference_apply(s, cands, sol, g, "relaxed", validated=checked)

    def refuse(*args):
        raise AssertionError("the full validate ran")

    monkeypatch.setattr(ilp, "validate", refuse)
    assert apply_solution(s, cands, sol, g, "relaxed", validated=checked) == expected
    assert expected[1] == {0: [], 1: []}


# ---------------------------------------------------------------- properties


def test_exactness_against_oracle_quick():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        s, g, _ = random_rollout_instance(rng, noise=rng.choice([0.3, 0.5, 0.8]))
        if positive_exhaustive_count(s) > 20:
            continue
        oracle = brute_force_collapse(s, g, "relaxed", cap=20)
        cands = generate_candidates(s, REDUCED)
        model = build_model(build_relations(cands), cands)
        sol = solve_exact(model, 30.0)
        assert sol.optimal
        assert sol.saving == oracle.best_saving
        greedy = solve_greedy(model)
        assert sol.saving >= greedy.saving
        applied, _ = apply_solution(s, cands, sol, g, "relaxed", validated=validated_input(s, g, "relaxed"))
        assert validate(applied, g, "relaxed").feasible
        assert cost_moves(applied) <= cost_moves(s)
        checked += 1


def test_upper_bound_brackets_oracle():
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        s, g, _ = random_rollout_instance(rng, n_agents=rng.choice([3, 4]), noise=rng.choice([0.5, 0.8]))
        if positive_exhaustive_count(s) > 20:
            continue
        oracle = brute_force_collapse(s, g, "relaxed", cap=20).best_saving
        for limit_ms in (0, 30000):
            config = OptimizeConfig(mode="relaxed", aba_filter=False, time_limit_ms=limit_ms)
            stats = optimize_schedule(s, g, config).stats
            assert stats["saving"] <= oracle <= stats["upper_bound"]
            assert stats["gap"] == stats["upper_bound"] - stats["saving"]
            assert (stats["gap"] == 0) == stats["optimal"]
        checked += 1


# ------------------------------------------------- span model and components


def assert_feasible(model, selected):
    assert selected.isdisjoint(model.fixed_zero)
    for a, b in model.mutex:
        assert not (a in selected and b in selected)
    for owner, suitable in model.implications:
        if owner in selected:
            assert any(s in selected for s in suitable)


def one_agent_model(spans, weights):
    return IlpModel(tuple(weights), (), frozenset(), tuple((0, a, b) for a, b in spans))


def test_interval_dp_matches_brute_force():
    rng = random.Random(53)
    for _ in range(300):
        k = rng.randint(1, 9)
        spans = []
        for _ in range(k):
            a = rng.randint(0, 8)
            spans.append((a, a + rng.randint(1, 4)))
        weights = [rng.randint(1, 6) for _ in range(k)]
        best = 0
        for mask in range(1 << k):
            chosen = [i for i in range(k) if mask >> i & 1]
            if all(
                spans[i][1] < spans[j][0] or spans[j][1] < spans[i][0]
                for p, i in enumerate(chosen)
                for j in chosen[p + 1 :]
            ):
                best = max(best, sum(weights[i] for i in chosen))
        model = one_agent_model(spans, weights)
        sol = solve_exact(model, 5.0)
        assert sol.saving == best and sol.optimal
        assert sol.n_components == sol.n_components_proved
        assert_feasible(model, sol.selected)


def test_touching_spans_conflict():
    model = one_agent_model([(0, 2), (2, 4), (5, 6)], [3, 3, 1])
    assert solve_greedy(model).selected == frozenset({0, 2})
    sol = solve_exact(model, 5.0)
    assert sol.saving == 4 and sol.optimal
    assert sol.n_components == 2


def random_models(rng, count):
    for _ in range(count):
        s, g, _ = random_rollout_instance(rng, noise=rng.choice([0.3, 0.6]), n_agents=rng.choice([2, 3, 4]))
        mode = rng.choice([REDUCED, EXHAUSTIVE])
        cands = generate_candidates(s, mode)
        rel = build_relations(cands)
        yield s, g, mode, cands, rel, build_model(rel, cands)


def test_lazy_pair_lists_match_eager_sweep():
    rng = random.Random(59)
    for s, g, mode, cands, rel, model in random_models(rng, 80):
        reference = eager_mutex(cands, model.fixed_zero)
        assert reference_n_mutex(model) == len(reference)
        assert solve_exact(model, 30.0).n_mutex == len(reference)
        assert solve_greedy(model).n_mutex == len(reference)
        assert "mutex" not in model.__dict__  # counting lists nothing
        assert "exclusions_cross" not in rel.__dict__  # neither model nor solve reads them
        assert rel.exclusions_in == eager_exclusions_in(cands)
        dump = json.loads(json.dumps(rel.to_json_dict()))
        assert set(dump) == {"spans", "vertices", "deps", "invalid"}
        assert dumped_pairs(dump) == (eager_exclusions_in(cands), all_pairs_cross_exclusions(cands))
        assert rel.exclusions_cross == all_pairs_cross_exclusions(cands)
        assert model.mutex == reference
        if mode != REDUCED:
            continue
        result = optimize_schedule(s, g, OptimizeConfig(mode="relaxed", aba_filter=False))
        assert "mutex" not in result.model.__dict__
        assert "exclusions_in" not in result.relations.__dict__
        assert "exclusions_cross" not in result.relations.__dict__
        assert result.stats["n_mutex"] == len(reference)


def test_span_model_optimum_matches_brute_force_with_cross_pairs():
    # the model leaves the cross-agent pairs out: adding them back to the
    # brute force changes no optimum
    rng = random.Random(61)
    for s, g, mode, cands, rel, model in random_models(rng, 80):
        sol = solve_exact(model, 30.0)
        assert sol.optimal
        assert sol.saving == brute_force_model(model, rel.exclusions_cross) == brute_force_model(model)
        assert_feasible(model, sol.selected)
        assert not any(a in sol.selected and b in sol.selected for a, b in rel.exclusions_cross)
        checked = validated_input(s, g, "relaxed")
        applied, restepped = apply_solution(s, cands, sol, g, "relaxed", validated=checked)
        assert cost_moves(applied) == cost_moves(s) - sol.saving
        assert restepped == changed_rows_steps(applied, s)


def disjoint_copies(model, k):
    n = model.n_vars
    agents = 1 + max(agent for agent, _, _ in model.spans)
    return IlpModel(
        model.weights * k,
        tuple(
            (owner + c * n, tuple(x + c * n for x in suitable))
            for c in range(k)
            for owner, suitable in model.implications
        ),
        frozenset(i + c * n for c in range(k) for i in model.fixed_zero),
        tuple((agent + c * agents, a, b) for c in range(k) for agent, a, b in model.spans),
    )


def test_disjoint_gadget_copies_are_separate_components():
    _, _, gadget = gadget_pipeline()
    for k in (1, 2, 5):
        model = disjoint_copies(gadget, k)
        sol = solve_exact(model, 10.0)
        assert sol.saving == 6 * k and sol.optimal
        assert sol.n_components == sol.n_components_proved == k
        assert_feasible(model, sol.selected)


def test_pipeline_reports_components():
    k = 3
    vs = [f"u{i}" for i in range(2 * k)]
    red = reduce_independent_set(Graph(vs, [(vs[2 * i], vs[2 * i + 1]) for i in range(k)]), 1)
    stats = optimize_schedule(red.schedule, red.graph).stats
    assert stats["saving"] == 6 * k
    assert stats["n_components"] == stats["n_components_proved"] == k


def test_solve_exact_zero_budget_searches_each_coupled_component_to_a_first_incumbent():
    _, _, gadget = gadget_pipeline()
    copies = disjoint_copies(gadget, 3)
    n = copies.n_vars
    agents = 1 + max(agent for agent, _, _ in copies.spans)
    # one agent whose heaviest span blocks two lighter ones: 3 alone, 4 together
    model = IlpModel(
        copies.weights + (3, 2, 2),
        copies.implications,
        copies.fixed_zero,
        copies.spans + ((agents, 0, 4), (agents, 0, 1), (agents, 2, 4)),
    )
    sol = solve_exact(model, 0.0)
    assert_feasible(model, sol.selected)
    # each gadget copy's first dive reaches its optimum 6, unproved
    assert sol.saving == 3 * 6 + 4 == brute_force_model(model)
    assert sol.selected & {n, n + 1, n + 2} == {n + 1, n + 2}
    assert sol.n_components == 4 and sol.n_components_proved == 1
    assert not sol.optimal and sol.upper_bound > sol.saving


# ------------------------------------------------------ relaxation search


def two_agent_model(weights, implications, spans):
    return IlpModel(tuple(weights), tuple(implications), frozenset(), tuple(spans))


def cross_pair_model():
    # each agent's DP takes its long span (6 and 5), as if both collapsed
    # onto one vertex at once; each needs the other agent's short span
    # that overlaps the other's long one, as a cross-agent pair's
    # dependencies do
    return two_agent_model(
        [6, 4, 1, 5, 3, 1],
        [(0, (4,)), (3, (1,))],
        [(0, 0, 4), (0, 0, 1), (0, 3, 4), (1, 0, 4), (1, 0, 1), (1, 3, 4)],
    )


def implication_model():
    # agent 0's DP takes 0, which needs 2; agent 1's DP takes 1 instead
    return two_agent_model([4, 3, 1], [(0, (2,))], [(0, 0, 2), (1, 0, 3), (1, 1, 2)])


@pytest.mark.parametrize("build", [cross_pair_model, implication_model])
def test_relaxation_search_branches_on_violated_constraint(build):
    model = build()
    sol = solve_exact(model, 5.0)
    assert sol.saving == brute_force_model(model) and sol.optimal
    assert sol.upper_bound == sol.saving
    assert sol.nodes_explored > 1  # the root relaxation was infeasible
    assert_feasible(model, sol.selected)
    capped = solve_exact(model, 0.0)  # searched to its first feasible leaf
    assert not capped.optimal and capped.saving == brute_force_model(model)
    assert capped.nodes_explored > 1
    assert capped.upper_bound > sol.saving


def test_agent_overlapping_matches_scan():
    rng = random.Random(67)
    for _ in range(100):
        spans = []
        for _ in range(rng.randint(1, 12)):
            a = rng.randint(0, 20)
            spans.append((a, a + rng.randint(1, 8)))
        model = one_agent_model(spans, [1] * len(spans))
        agent = _Agent(list(range(len(spans))), model)
        for v, (a, b) in enumerate(spans):
            expected = {u for u, (a2, b2) in enumerate(spans) if u != v and a2 <= b and a <= b2}
            assert sorted(agent.overlapping(v)) == sorted(expected)


def test_run_pair_gives_only_the_innermost_candidate():
    s = schedule_from_paths([["A", "A", "B", "A", "A"]])
    cands = generate_candidates(s, REDUCED)
    model = build_model(build_relations(cands), cands)
    assert [model.spans[i][1:] for i in model.free()] == [(1, 3)]
    assert solve_exact(model, 5.0).saving == 2


# ------------------------------------------ components and dominance references


def crowded_models(mode):
    for s in crowded_schedules():
        cands = generate_candidates(s, mode)
        yield build_model(build_relations(cands), cands)


def reduction_models():
    """Independent-set reductions of random graphs, 10 vertices and 13 edges."""
    rng = random.Random(71)
    names = [f"u{i}" for i in range(10)]
    pairs = list(itertools.combinations(names, 2))
    for _ in range(30):
        red = reduce_independent_set(Graph(names, rng.sample(pairs, 13)), 1)
        cands = generate_candidates(red.schedule, REDUCED)
        yield build_model(build_relations(cands), cands)


@pytest.mark.parametrize("mode", [REDUCED, EXHAUSTIVE])
def test_components_match_union_of_every_member(mode):
    coupled = 0
    for model in crowded_models(mode):
        comps = _components(model, _owned(model))
        assert comps == all_members_components(model)
        coupled += sum(1 for _, c in comps if c)
    assert coupled > 0


def test_implication_over_two_agents_is_one_component():
    # 0 needs one of 1, 2, 3: 1 and 3 form one chain of agent 1, 2 is agent 2's
    spans = [(0, 0, 2), (1, 0, 2), (2, 0, 2), (1, 1, 3)]
    model = two_agent_model([3, 1, 1, 1], [(0, (1, 2, 3))], spans)
    assert _components(model, _owned(model)) == [([0, 1, 2, 3], True)] == all_members_components(model)


def test_reduced_models_have_no_dominated_variable():
    for model in itertools.chain(crowded_models(REDUCED), reduction_models()):
        for comp, _ in _components(model, _owned(model)):
            assert pairwise_dominated(model, comp) == []


# (nodes_explored, saving) per crowded schedule: the node counts pin the
# order in which the search visits nodes, not only the optimum
CROWDED_SEARCH_UNLIMITED = [
    (5, 12), (3, 12), (5, 16), (3, 12), (5, 22), (3, 8), (3, 8), (5, 14), (3, 12), (5, 14),
    (3, 8), (3, 14), (5, 12), (3, 12), (7, 22), (3, 14), (3, 8), (7, 18), (5, 16), (7, 20),
    (11, 72), (4, 54), (1, 54), (5, 50), (2, 42), (4, 58), (2, 72), (1, 46), (2, 50), (4, 92),
    (3, 68), (5, 88), (2, 86), (5, 82), (2, 88), (2, 78), (1, 32), (2, 86), (1, 98), (3, 46),
    (2, 70), (2, 98), (5, 90), (2, 74), (1, 98), (1, 104), (15, 70), (2, 50), (3, 70), (1, 104),
    (1, 46), (13, 88), (1, 80), (1, 40), (5, 92), (12, 80), (3, 84), (4, 52), (4, 82), (3, 76),
    (2, 70), (2, 54), (2, 82), (3, 84), (4, 64), (2, 84), (3, 76), (3, 62), (4, 52), (1, 56),
]
CROWDED_SEARCH_ZERO_BUDGET = [
    (4, 12), (3, 12), (3, 14), (3, 12), (3, 22), (3, 8), (3, 8), (3, 12), (3, 12), (3, 12),
    (3, 8), (3, 12), (3, 10), (3, 10), (4, 20), (3, 12), (3, 8), (4, 18), (3, 14), (3, 18),
    (7, 72), (4, 54), (1, 54), (5, 50), (2, 42), (4, 58), (2, 72), (1, 46), (2, 50), (4, 92),
    (3, 68), (5, 88), (2, 86), (5, 82), (2, 88), (2, 78), (1, 32), (2, 86), (1, 98), (3, 46),
    (2, 70), (2, 98), (5, 90), (2, 74), (1, 98), (1, 104), (6, 70), (2, 50), (3, 70), (1, 104),
    (1, 46), (8, 84), (1, 80), (1, 40), (5, 92), (9, 76), (3, 84), (4, 52), (4, 82), (3, 76),
    (2, 70), (2, 54), (2, 82), (3, 84), (4, 64), (2, 84), (3, 76), (3, 62), (4, 52), (1, 56),
]


@pytest.mark.parametrize(
    "budget, expected", [(None, CROWDED_SEARCH_UNLIMITED), (0.0, CROWDED_SEARCH_ZERO_BUDGET)]
)
def test_search_order_on_crowded_schedules_is_pinned(budget, expected):
    got = []
    for model in crowded_models(REDUCED):
        sol = solve_exact(model, budget)
        got.append((sol.nodes_explored, sol.saving))
    assert got == expected


def branching_model():
    h = Graph([f"u{i}" for i in range(5)], [(f"u{i}", f"u{(i + 1) % 5}") for i in range(5)])
    red = reduce_independent_set(h, 1)
    cands = generate_candidates(red.schedule, REDUCED)
    return build_model(build_relations(cands), cands)


def test_search_does_not_touch_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    sol = solve_exact(branching_model(), 10.0)
    assert sol.optimal and sol.saving == 4 * 5 + 2 * 2
    assert sol.nodes_explored > 1


def test_threads_share_one_model():
    model = branching_model()  # shared read-only: each solve builds its own owner lists and chains
    results = [None] * 4

    def run(k):
        results[k] = solve_exact(model, 30.0)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    assert first.optimal
    for sol in results[1:]:
        assert (sol.selected, sol.saving, sol.nodes_explored) == (first.selected, first.saving, first.nodes_explored)
