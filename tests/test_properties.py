"""Property tests over small seeded rollouts: the pipeline's output is
valid, its saving is the oracle's optimum, and its bound is no lower."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_collapse import CapExceededError, brute_force_collapse, validate
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule

from helpers import random_rollout_instance


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
    try:
        oracle = brute_force_collapse(s, g, "relaxed", cap=16)
    except CapExceededError:
        return
    assert stats["saving"] == oracle.best_saving
