import csv
import io
import json
import time

import pytest

from mapf_collapse import Instance, load_instance, save_instance
from mapf_collapse.cli import main
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    all_pairs_cross_exclusions,
    dumped_pairs,
    eager_exclusions_in,
    edge_instance_json,
    schedule_from_paths,
    single_edge_graph,
)

TINY_MAP = "type octile\nheight 4\nwidth 4\nmap\n....\n....\n....\n....\n"


@pytest.fixture
def gadget_instance(tmp_path):
    red = reduce_independent_set(single_edge_graph(), 1)
    path = tmp_path / "gadget.json"
    save_instance(Instance(red.graph, red.schedule), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_feasible(gadget_instance, capsys):
    code, out = run(capsys, "validate", gadget_instance)
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_validate_infeasible_exit_2(tmp_path, capsys):
    from mapf_collapse import Graph

    g = Graph(["A", "B"], [("A", "B")])
    s = schedule_from_paths([["A", "B"], ["B", "A"]])
    p = tmp_path / "swap.json"
    save_instance(Instance(g, s), str(p))
    code, out = run(capsys, "validate", str(p), "--mode", "relaxed")
    assert code == 2
    report = json.loads(out)
    assert report["feasible"] is False
    assert any(v["kind"] == "edge-collision" for v in report["violations"])


def test_repeated_calls_do_not_share_options(tmp_path, capsys):
    from mapf_collapse import Graph

    # feasible in relaxed mode only: the agent does not end on its goal
    s = schedule_from_paths([["A", "B"]], goals=["A"])
    p = tmp_path / "unsolved.json"
    save_instance(Instance(Graph(["A", "B"], [("A", "B")]), s), str(p))
    assert run(capsys, "validate", str(p), "--mode", "relaxed")[0] == 0
    assert run(capsys, "validate", str(p))[0] == 2
    assert run(capsys, "validate", str(p), "--mode", "relaxed")[0] == 0


def test_optimize_gadget(gadget_instance, capsys, tmp_path):
    out_path = str(tmp_path / "opt.json")
    stats_path = str(tmp_path / "stats.json")
    code, out = run(
        capsys, "optimize", gadget_instance, "-o", out_path, "--stats", stats_path
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["cost_before"] == 10
    assert stats["cost_after"] == 4
    assert stats["saving"] == 6
    assert stats["optimal"] is True
    assert json.loads(open(stats_path).read()) == stats
    optimized = load_instance(out_path)
    assert optimized.schedule.horizon == 6


def test_optimize_infeasible_input_exit_2(tmp_path, capsys):
    from mapf_collapse import Graph

    g = Graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    s = schedule_from_paths([["A", "B"], ["C", "B"]])
    p = tmp_path / "collide.json"
    save_instance(Instance(g, s), str(p))
    code, _ = run(capsys, "optimize", str(p), "--mode", "relaxed")
    assert code == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("path", "AB"),
        ("horizon", True),
        ("map_file", 5),
        ("start", ["A"]),
        ("path", [["A"], "B"]),
    ],
)
def test_optimize_malformed_field_exit_2(tmp_path, capsys, field, value):
    data = edge_instance_json()
    if field == "horizon":
        data["horizon"] = value
    elif field == "map_file":
        data["graph"] = {"map_file": value}
    else:
        data["agents"][0][field] = value
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(data))
    code, _ = run(capsys, "optimize", str(p), "--mode", "relaxed")
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [b'{"graph": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
    ids=["non-utf8", "deeply-nested"],
)
def test_malformed_instance_file_exit_2(tmp_path, capsys, content):
    p = tmp_path / "malformed.json"
    p.write_bytes(content)
    for command in ("validate", "optimize"):
        code, _ = run(capsys, command, str(p), "--mode", "relaxed")
        assert code == 2


@pytest.mark.parametrize("map_file", ["bad.map", "nul\x00.map"], ids=["non-utf8", "nul-in-path"])
def test_unreadable_map_file_exit_2(tmp_path, capsys, map_file):
    (tmp_path / "bad.map").write_bytes(TINY_MAP.encode() + b"\xff\n")
    data = edge_instance_json()
    data["graph"] = {"map_file": map_file}
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(data))
    code, _ = run(capsys, "validate", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    ["{bad", "[1]", "null", '{"vertices": ["u1", "u2"], "edges": [true]}', "\xff"],
    ids=["not-json", "list", "null", "bool-edge", "non-utf8"],
)
def test_reduce_malformed_graph_exit_2(tmp_path, capsys, text):
    gpath = tmp_path / "h.json"
    gpath.write_bytes(text.encode("latin-1"))
    code, _ = run(capsys, "reduce", str(gpath), "--k", "1", "-o", str(tmp_path / "x.json"))
    assert code == 2


@pytest.mark.parametrize(
    "vertices, edges",
    [("ab", ["ab"]), (["a", "b"], ["ab"]), ({"a": 0, "b": 1}, [["a", "b"]]), (["a", "b"], {"ab": 0})],
    ids=["string-vertices", "string-edge", "dict-vertices", "dict-edges"],
)
def test_graph_json_needs_lists_exit_2(tmp_path, capsys, vertices, edges):
    # a string or a dict would be read item by item: "ab" as vertices a and b
    gpath = tmp_path / "h.json"
    gpath.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    code, _ = run(capsys, "reduce", str(gpath), "--k", "1", "-o", str(tmp_path / "x.json"))
    assert code == 2
    data = edge_instance_json()
    data["graph"] = {"vertices": vertices, "edges": edges}
    data["agents"][0].update(start="a", goal="b", path=["a", "b"])
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(data))
    code, _ = run(capsys, "validate", str(p))
    assert code == 2


def test_optimize_idempotent_without_filter(gadget_instance, capsys, tmp_path):
    first = str(tmp_path / "first.json")
    code, out = run(
        capsys,
        "optimize",
        gadget_instance,
        "-o",
        first,
        "--stats",
        str(tmp_path / "s1.json"),
        "--aba-filter",
        "off",
    )
    assert code == 0 and json.loads(out)["optimal"] is True
    code, out = run(
        capsys,
        "optimize",
        first,
        "-o",
        str(tmp_path / "second.json"),
        "--stats",
        str(tmp_path / "s2.json"),
        "--aba-filter",
        "off",
    )
    assert code == 0
    assert json.loads(out)["saving"] == 0


def test_optimize_already_optimal_schedule(tmp_path, capsys):
    # straight shortest paths contain no closed subwalks
    from mapf_collapse import GridMap, PlanRequest, grid_to_graph, prioritized_plan

    g = grid_to_graph(GridMap(4, 4, frozenset()))
    s = prioritized_plan(PlanRequest(g, ("r0c0", "r3c3"), ("r0c3", "r3c0"), horizon=32))
    p = tmp_path / "clean.json"
    save_instance(Instance(g, s), str(p))
    code, out = run(
        capsys, "optimize", str(p), "-o", str(tmp_path / "o.json"),
        "--stats", str(tmp_path / "s.json"),
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["saving"] == 0
    assert stats["cost_after"] == stats["cost_before"]


def test_optimize_relations_dump(gadget_instance, capsys, tmp_path):
    dump = str(tmp_path / "rel.json")
    code, _ = run(
        capsys,
        "optimize",
        gadget_instance,
        "-o",
        str(tmp_path / "o.json"),
        "--stats",
        str(tmp_path / "s.json"),
        "--dump-relations",
        dump,
    )
    assert code == 0
    rel = json.loads(open(dump).read())
    assert set(rel) == {"spans", "vertices", "deps", "invalid"}
    inst = load_instance(gadget_instance)
    cands = optimize_schedule(inst.schedule, inst.graph, OptimizeConfig()).candidates
    assert rel["spans"] == [list(span) for span in cands.actions]
    assert rel["vertices"] == list(cands.vertices)
    within, cross = dumped_pairs(rel)
    assert within == eager_exclusions_in(cands) != ()
    assert cross == all_pairs_cross_exclusions(cands)


@pytest.mark.parametrize("command", ["optimize", "bench"])
def test_negative_time_limit_exit_1_writes_nothing(gadget_instance, capsys, tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "optimize":
        argv = [gadget_instance, "-o", str(out / "o.json"), "--stats", str(out / "s.json")]
    else:
        argv = [str(tmp_path), "--out", str(out / "bench.csv")]
    code = main([command, *argv, "--time-limit-ms", "-5"])
    assert code == 1
    assert "time_limit_ms must be at least 0, got -5" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "bench"])
def test_time_limit_too_large_for_a_float_exit_1_writes_nothing(gadget_instance, capsys, tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "optimize":
        argv = [gadget_instance, "-o", str(out / "o.json"), "--stats", str(out / "s.json")]
    else:
        argv = [str(tmp_path), "--out", str(out / "bench.csv")]
    code = main([command, *argv, "--time-limit-ms", "1" + "0" * 400])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: time_limit_ms must be a number of milliseconds within float range" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []
    for limit in (True, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time_limit_ms must be a number"):
            OptimizeConfig(time_limit_ms=limit)


def test_time_limit_zero_valid_below_zero_raises(gadget_instance, capsys, tmp_path):
    code, out = run(
        capsys, "optimize", gadget_instance, "-o", str(tmp_path / "o.json"),
        "--stats", str(tmp_path / "s.json"), "--time-limit-ms", "0",
    )
    assert code == 0
    assert json.loads(out)["config"]["time_limit_ms"] == 0
    with pytest.raises(ValueError, match="time_limit_ms must be at least 0"):
        OptimizeConfig(time_limit_ms=-1)


def test_oracle_gadget(gadget_instance, capsys):
    code, out = run(capsys, "oracle", gadget_instance)
    assert code == 0
    assert json.loads(out)["best_saving"] == 6


def test_oracle_cap_exit_4(gadget_instance, capsys):
    code, _ = run(capsys, "oracle", gadget_instance, "--cap", "1")
    assert code == 4


def test_oracle_negative_cap_exit_1(gadget_instance, capsys):
    assert main(["oracle", gadget_instance, "--cap", "-1"]) == 1
    assert "cap must be at least 0, got -1" in capsys.readouterr().err


def test_reduce_single_edge(tmp_path, capsys):
    gpath = tmp_path / "h.json"
    gpath.write_text(json.dumps({"vertices": ["u1", "u2"], "edges": [["u1", "u2"]]}))
    out = str(tmp_path / "inst.json")
    code, text = run(capsys, "reduce", str(gpath), "--k", "1", "-o", out)
    assert code == 0
    info = json.loads(text)
    assert info["c0"] == 10 and info["beta"] == 4
    assert info["n_agents"] == 3 and info["horizon"] == 6
    inst = load_instance(out)
    assert inst.schedule.n_agents == 3


def test_reduce_edgeless_exit_4(tmp_path, capsys):
    gpath = tmp_path / "h.json"
    gpath.write_text(json.dumps({"vertices": ["u1"], "edges": []}))
    code, _ = run(capsys, "reduce", str(gpath), "--k", "1", "-o", str(tmp_path / "x.json"))
    assert code == 4


def test_reduce_bad_k_exit_1(tmp_path, capsys):
    gpath = tmp_path / "h.json"
    gpath.write_text(json.dumps({"vertices": ["u1", "u2"], "edges": [["u1", "u2"]]}))
    code, _ = run(capsys, "reduce", str(gpath), "--k", "9", "-o", str(tmp_path / "x.json"))
    assert code == 1


def test_gen_rollout_and_optimize(tmp_path, capsys):
    map_path = tmp_path / "m.map"
    map_path.write_text(TINY_MAP)
    inst_path = str(tmp_path / "gen.json")
    code, out = run(
        capsys,
        "gen",
        "--map",
        str(map_path),
        "--agents",
        "3",
        "--seed",
        "5",
        "--noise",
        "0.5",
        "--horizon",
        "16",
        "-o",
        inst_path,
    )
    assert code == 0
    info = json.loads(out)
    assert info["n_agents"] == 3 and info["rng"] == "mt19937"
    inst = load_instance(inst_path)
    assert inst.map_name == "m"
    code, out = run(capsys, "optimize", inst_path, "--mode", "relaxed",
                    "-o", str(tmp_path / "o.json"), "--stats", str(tmp_path / "s.json"))
    assert code == 0


def test_gen_plan_mode_strict(tmp_path, capsys):
    map_path = tmp_path / "m.map"
    map_path.write_text(TINY_MAP)
    inst_path = str(tmp_path / "gen.json")
    code, _ = run(
        capsys, "gen", "--map", str(map_path), "--agents", "2", "--seed", "1",
        "--mode", "plan", "--horizon", "64", "-o", inst_path,
    )
    assert code == 0
    code, _ = run(capsys, "validate", inst_path)
    assert code == 0


def test_gen_too_many_agents_exit_4(tmp_path, capsys):
    map_path = tmp_path / "m.map"
    map_path.write_text(TINY_MAP)
    code = main(["gen", "--map", str(map_path), "--agents", "12", "-o", str(tmp_path / "g.json")])
    assert code == 4
    assert "refused: cannot place 12 agents on 16 free cells" in capsys.readouterr().err


@pytest.mark.parametrize("agents", ["0", "-3"])
def test_gen_non_positive_agents_exit_1(tmp_path, capsys, agents):
    # a usage error, not a size cap
    map_path = tmp_path / "m.map"
    map_path.write_text(TINY_MAP)
    out = tmp_path / "g.json"
    assert main(["gen", "--map", str(map_path), "--agents", agents, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("map_name", ["bad.map", "missing.map"], ids=["non-utf8", "missing"])
def test_gen_unreadable_map_exit_2(tmp_path, capsys, map_name):
    # the same handling as a map_file named in an instance
    (tmp_path / "bad.map").write_bytes(TINY_MAP.encode() + b"\xff\n")
    out = tmp_path / "g.json"
    assert main(["gen", "--map", str(tmp_path / map_name), "--agents", "2", "-o", str(out)]) == 2
    assert "cannot read map file" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_1(capsys):
    assert main(["optimize"]) == 1
    assert main(["no-such-command"]) == 1


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _make_bench_dir(tmp_path, capsys, n=4):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "m.map").write_text(TINY_MAP)
    for seed in range(n):
        code, _ = run(
            capsys, "gen", "--map", str(bench_dir / "m.map"), "--agents", "3",
            "--seed", str(seed), "--noise", "0.5", "--horizon", "12",
            "-o", str(bench_dir / f"inst{seed:02d}.json"),
        )
        assert code == 0
    return bench_dir


def test_bench_rows_and_summary(tmp_path, capsys):
    bench_dir = _make_bench_dir(tmp_path, capsys)
    out_csv = str(tmp_path / "bench.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv, "--mode", "relaxed")
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 4
    assert summary["errors"] == 0
    assert 0.0 <= summary["mean_saving_ratio"] <= 1.0
    rows = read_rows(out_csv)
    assert [r["instance_id"] for r in rows] == sorted(r["instance_id"] for r in rows)
    for r in rows:
        assert float(r["saving_ratio"]) >= 0.0
        assert int(r["cost_after"]) <= int(r["cost_before"])
        assert r["map_type"] == "m"
        assert r["agent_density"] != ""


def test_bench_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    out_csv = str(tmp_path / "empty.csv")
    code, out = run(capsys, "bench", str(d), "--out", out_csv)
    assert code == 0
    assert json.loads(out)["instances"] == 0
    rows = read_rows(out_csv)
    assert rows == []
    with open(out_csv) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "instance_id" and "error" in header


def test_bench_mixed_invalid_flagged(tmp_path, capsys):
    bench_dir = _make_bench_dir(tmp_path, capsys, n=2)
    (bench_dir / "broken.json").write_text("{not json")
    out_csv = str(tmp_path / "mixed.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv, "--mode", "relaxed")
    assert code == 0
    rows = read_rows(out_csv)
    by_id = {r["instance_id"]: r for r in rows}
    assert by_id["broken"]["error"] != ""
    assert json.loads(out)["errors"] == 1


def test_bench_list_valued_vertex_is_one_error_row(tmp_path, capsys):
    bench_dir = _make_bench_dir(tmp_path, capsys, n=1)
    (good,) = bench_dir.glob("*.json")
    data = json.loads(good.read_text())
    data["agents"][0]["path"][0] = [data["agents"][0]["path"][0]]
    (bench_dir / "listvertex.json").write_text(json.dumps(data))
    out_csv = str(tmp_path / "listvertex.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv, "--mode", "relaxed")
    assert code == 0
    rows = read_rows(out_csv)
    assert len(rows) == 2
    assert [r["instance_id"] for r in rows if r["error"]] == ["listvertex"]
    assert json.loads(out)["errors"] == 1


def test_bench_off_map_vertex_leaves_density_blank(tmp_path, capsys):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "m.map").write_text(TINY_MAP)
    for name, vertex in (("far", "r40c0"), ("next", "r4c0")):
        agent = {"name": "a0", "start": "r3c0", "goal": "r3c0", "path": ["r3c0", vertex, "r3c0"]}
        data = {"graph": {"map_file": "m.map"}, "horizon": 2, "agents": [agent]}
        (bench_dir / f"{name}.json").write_text(json.dumps(data))
    out_csv = str(tmp_path / "offmap.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv)
    assert code == 0
    assert json.loads(out)["errors"] == 2
    rows = {r["instance_id"]: r for r in read_rows(out_csv)}
    assert rows["far"]["error"] == "UnknownVertexError: 'r40c0'"
    assert rows["next"]["error"] == "UnknownVertexError: 'r4c0'"
    assert rows["far"]["agent_density"] == rows["next"]["agent_density"] == ""


def test_sparse_cell_names_load_without_a_grid(tmp_path, capsys):
    # two vertices whose bounding box has 4M cells
    agent = {"name": "a0", "start": "r0c0", "goal": "r0c0", "path": ["r0c0", "r0c0"]}
    data = {"graph": {"vertices": ["r0c0", "r2000c2000"], "edges": []}, "horizon": 1, "agents": [agent]}
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    path = bench_dir / "sparse.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    code, out = run(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["feasible"] is True
    out_csv = str(tmp_path / "sparse.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and json.loads(out)["errors"] == 0
    (row,) = read_rows(out_csv)
    assert row["agent_density"] == ""


def test_aliased_cell_names_load_without_a_grid(tmp_path, capsys):
    # read as a 2x2 map, r01c1 and r1c1 would be one cell holding both agents
    agents = [{"name": f"a{k}", "start": v, "goal": v, "path": [v, v]} for k, v in enumerate(("r01c1", "r1c1"))]
    data = {"graph": {"vertices": ["r0c0", "r0c1", "r1c0", "r1c1", "r01c1"], "edges": []}, "horizon": 1, "agents": agents}
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "aliased.json").write_text(json.dumps(data))
    out_csv = str(tmp_path / "aliased.csv")
    code, out = run(capsys, "bench", str(bench_dir), "--out", out_csv)
    assert code == 0 and json.loads(out)["errors"] == 0
    (row,) = read_rows(out_csv)
    assert row["agent_density"] == ""


def strip_timing_columns(path):
    rows = read_rows(path)
    for r in rows:
        r["build_time_ms"] = r["solve_time_ms"] = ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=rows[0].keys() if rows else [], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_non_positive_jobs_exit_1(tmp_path, capsys, jobs):
    # a usage error, as gen --agents 0 is: nothing runs, no CSV is written
    bench_dir = _make_bench_dir(tmp_path, capsys, n=1)
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(bench_dir), "--out", str(out_csv), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out_csv.exists()


def test_bench_jobs_determinism(tmp_path, capsys):
    bench_dir = _make_bench_dir(tmp_path, capsys, n=5)
    csv1 = str(tmp_path / "j1.csv")
    csv8 = str(tmp_path / "j8.csv")
    code, _ = run(capsys, "bench", str(bench_dir), "--out", csv1, "--jobs", "1", "--mode", "relaxed")
    assert code == 0
    code, _ = run(capsys, "bench", str(bench_dir), "--out", csv8, "--jobs", "8", "--mode", "relaxed")
    assert code == 0
    assert strip_timing_columns(csv1) == strip_timing_columns(csv8)
