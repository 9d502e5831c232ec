import random

import pytest

from mapf_collapse import ConsistencyError, Graph, InfeasibleInputError, cost_moves, soc, validate
from mapf_collapse import pipeline
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule, strip_timing
from mapf_collapse.reduction import reduce_independent_set

from helpers import complete_graph, random_rollout_instance, schedule_from_paths, single_edge_graph

STATS_FIELDS = {
    "n_actions",
    "n_mutex",
    "n_implications",
    "n_invalid",
    "saving",
    "cost_before",
    "cost_after",
    "soc_before",
    "soc_after",
    "saving_ratio",
    "optimal",
    "build_time_ms",
    "solve_time_ms",
    "nodes_explored",
}


def test_stats_contract_fields():
    red = reduce_independent_set(single_edge_graph(), 1)
    result = optimize_schedule(red.schedule, red.graph)
    assert STATS_FIELDS <= set(result.stats)
    assert result.stats["config"]["time_limit_ms"] == 5000
    assert result.stats["saving"] == 6
    assert result.stats["saving_ratio"] == pytest.approx(0.6)


def test_pipeline_rejects_infeasible():
    g = Graph(["A", "B"], [("A", "B")])
    s = schedule_from_paths([["A", "B"], ["B", "A"]])
    with pytest.raises(InfeasibleInputError):
        optimize_schedule(s, g, OptimizeConfig(mode="relaxed"))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("aba_filter", "off", "aba_filter must be a bool"),
        ("aba_filter", 0, "aba_filter must be a bool"),
        ("aba_filter", None, "aba_filter must be a bool"),
        ("mode", "bogus", "mode must be one of"),
        ("mode", None, "mode must be one of"),
    ],
)
def test_config_rejects_a_non_bool_filter_and_an_unknown_mode(field, value, message):
    # a truthy string would otherwise run the prefilter while the stats
    # echo it, and an unknown mode would wait for validate to fail
    with pytest.raises(ValueError, match=message):
        OptimizeConfig(**{field: value})


def test_candidate_columns_are_shared_not_copied():
    # the relations, the model and the candidate set hold one table
    rng = random.Random(107)
    s, g, _ = random_rollout_instance(rng, noise=0.6, horizon=12, n_agents=3)
    result = optimize_schedule(s, g, OptimizeConfig(mode="relaxed", aba_filter=False))
    cands = result.candidates
    assert cands.actions
    assert result.relations.spans is result.model.spans is cands.actions
    assert result.relations.vertices is cands.vertices
    assert result.model.weights is cands.weights


def test_saving_accounting_includes_filter():
    rng = random.Random(97)
    for _ in range(20):
        s, g, _ = random_rollout_instance(rng, noise=0.6, horizon=12)
        result = optimize_schedule(s, g, OptimizeConfig(mode="relaxed"))
        st = result.stats
        assert st["saving"] == st["aba_removed_moves"] + st["ilp_saving"]
        assert st["cost_before"] - st["cost_after"] == st["saving"]
        assert cost_moves(result.schedule) == st["cost_after"]
        assert validate(result.schedule, g, "relaxed").feasible


def test_output_stats_equal_the_output_counted_from_its_paths():
    """cost_after and soc_after come from the input's moves and the rows
    apply_solution steps again; they are the output's, counted from its
    paths, with the prefilter on and off."""
    rng = random.Random(109)
    for _ in range(20):
        rollout, g, _ = random_rollout_instance(rng, noise=0.6, horizon=12)
        # each last cell is the goal: settle times fall when a collapse
        # removes a path's last move
        s = schedule_from_paths([ag.path for ag in rollout.agents])
        for aba_filter in (True, False):
            result = optimize_schedule(s, g, OptimizeConfig(mode="relaxed", aba_filter=aba_filter))
            assert result.stats["cost_after"] == cost_moves(result.schedule)
            assert result.stats["soc_after"] == soc(result.schedule)


def test_stats_deterministic_modulo_timing():
    rng = random.Random(101)
    s, g, _ = random_rollout_instance(rng, noise=0.5, horizon=16, n_agents=4)
    config = OptimizeConfig(mode="relaxed")
    a = optimize_schedule(s, g, config)
    b = optimize_schedule(s, g, config)
    assert strip_timing(a.stats) == strip_timing(b.stats)
    assert a.schedule == b.schedule


def test_optimize_leaves_the_input_untouched_and_calls_stay_cold():
    """No stage caches anything on the caller's schedule or its agent
    records, so a second call on the same input does the same work and
    reports the same stats."""
    rng = random.Random(103)
    for _ in range(10):
        s, g, _ = random_rollout_instance(rng, noise=0.6, horizon=12, n_agents=3)
        before = dict(vars(s))
        agents_before = [dict(vars(ag)) for ag in s.agents]
        config = OptimizeConfig(mode="relaxed")
        first = optimize_schedule(s, g, config)
        second = optimize_schedule(s, g, config)
        assert vars(s) == before
        assert [vars(ag) for ag in s.agents] == agents_before
        assert strip_timing(first.stats) == strip_timing(second.stats)
        assert first.schedule == second.schedule


def test_apply_check_is_anchored_on_the_input(monkeypatch):
    """The output is checked where it differs from the validated input,
    not from the prefiltered schedule, so a prefilter rewrite that
    collides is caught."""
    g = complete_graph(["A", "B", "C", "D"])
    s = schedule_from_paths([["A", "B", "A"], ["C", "A", "D"]])
    assert validate(s, g).feasible

    def colliding_prefilter(schedule, moves=None):
        # parks agent 0 on A at step 1, where agent 1 is
        return schedule.with_paths({0: ("A", "A", "A")}), 1

    monkeypatch.setattr(pipeline, "aba_prefilter_detailed", colliding_prefilter)
    collision = r"first violation: Violation\(kind='vertex-collision', agents=\(0, 1\), timestep=1\)"
    with pytest.raises(ConsistencyError, match=collision):
        optimize_schedule(s, g)


def test_custom_solver_hook(monkeypatch):
    from mapf_collapse.ilp import solve_exact

    calls = []

    def recording_solver(model, limit):
        calls.append(limit)
        return solve_exact(model, limit)

    monkeypatch.setattr(pipeline, "solve_exact", recording_solver)
    red = reduce_independent_set(single_edge_graph(), 1)
    config = OptimizeConfig(time_limit_ms=1234)
    result = optimize_schedule(red.schedule, red.graph, config)
    assert calls == [pytest.approx(1.234)]
    assert result.stats["saving"] == 6
