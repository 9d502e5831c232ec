"""Property tests. Over small seeded rollouts the pipeline's output is
valid, its saving is the oracle's optimum, and its bound is no lower.
Over malformed files the CLI exits with its documented code, never a
traceback."""

import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_collapse import CapExceededError, brute_force_collapse, validate
from mapf_collapse.cli import main
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule

from helpers import edge_instance_json, random_rollout_instance


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
