"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 1-5, 8, 9 are exact; 6 is a statistical floor with the measured
value reported; 7 is a soft runtime target that reports but never fails.
"""

import itertools
import json
import random
import statistics
import time

import pytest

from mapf_collapse import (
    Graph,
    GridMap,
    Instance,
    PlanRequest,
    brute_force_collapse,
    cost_moves,
    generate_candidates,
    grid_to_graph,
    load_instance,
    noisy_rollout,
    save_instance,
    validate,
)
from mapf_collapse.candidates import EXHAUSTIVE, REDUCED, aba_prefilter_detailed
from mapf_collapse.cli import main
from mapf_collapse.pipeline import OptimizeConfig, optimize_schedule, strip_timing
from mapf_collapse.reduction import reduce_independent_set

from helpers import (
    random_rollout_instance,
    reduction_roundtrip,
    reference_moves,
    schedule_from_paths,
    single_edge_graph,
)


def report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {label}: {status}{suffix}")
    return ok


# -------------------------------------------------------------- criterion 1


def test_1_single_edge_worked_instance(tmp_path, capsys):
    red = reduce_independent_set(single_edge_graph(), 1)
    inst_path = str(tmp_path / "gadget.json")
    save_instance(Instance(red.graph, red.schedule), inst_path)
    t0 = time.monotonic()
    code = main(
        [
            "optimize",
            inst_path,
            "-o",
            str(tmp_path / "o.json"),
            "--stats",
            str(tmp_path / "s.json"),
        ]
    )
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    stats = json.loads(out)
    optimized = load_instance(str(tmp_path / "o.json")).schedule
    option_a = (
        optimized.agents[0].path == ("x_u1",) * 7
        and optimized.agents[2].path == ("a_e1",) * 5 + ("x_u2", "b_e1")
        and optimized.agents[1].path == red.schedule.agents[1].path
    )
    option_b = (
        optimized.agents[1].path == ("x_u2",) * 7
        and optimized.agents[2].path == ("a_e1", "x_u1") + ("b_e1",) * 5
        and optimized.agents[0].path == red.schedule.agents[0].path
    )
    ok = (
        code == 0
        and stats["cost_before"] == 10
        and stats["saving"] == 6
        and stats["cost_after"] == 4
        and stats["optimal"] is True
        and (option_a or option_b)
        and elapsed < 1.0
    )
    assert report(1, "single-edge worked instance", ok, f"{elapsed*1000:.0f} ms")


# -------------------------------------------------------------- criterion 2


def test_2_candidate_count_reduction():
    s = schedule_from_paths([list("AAABAAA")])
    exhaustive = generate_candidates(s, EXHAUSTIVE)
    reduced = generate_candidates(s, REDUCED)
    endpoints = {0, 2, 4, 6}
    endpoint_pairs = [
        (a, b) for a, b in itertools.combinations(sorted(endpoints), 2)
    ]
    reduced_pairs = {(a, b) for _, a, b in reduced.actions}
    ok = (
        len(exhaustive.actions) == 15
        and len(endpoint_pairs) == 6
        and reduced_pairs == {(2, 4)}
        and reduced_pairs < {(0, 4), (0, 6), (2, 4), (2, 6)}
        and all(a in endpoints and b in endpoints for _, a, b in reduced.actions)
    )
    assert report(2, "candidate-count optimization", ok, "15 exhaustive, C(4,2)=6 endpoints, 1 after pruning")


# -------------------------------------------------------------- criterion 3


def test_3_oracle_equivalence_500():
    rng = random.Random(2024)
    config = OptimizeConfig(mode="relaxed", aba_filter=False, time_limit_ms=60000)
    t0 = time.monotonic()
    checked = mismatches = 0
    while checked < 500:
        n_agents = rng.choice([2, 3, 4])
        s, g, _ = random_rollout_instance(
            rng,
            n_agents=n_agents,
            horizon=rng.randint(4, 8),
            noise=rng.choice([0.3, 0.5, 0.8]),
            blocked_cells=rng.choice([0, 1]),
        )
        cands = generate_candidates(s, EXHAUSTIVE)
        if sum(1 for w in cands.weights if w > 0) > 20:
            continue
        oracle = brute_force_collapse(s, g, "relaxed", cap=20)
        result = optimize_schedule(s, g, config)
        assert result.solution.optimal
        if result.stats["saving"] != oracle.best_saving:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120.0
    assert report(3, "oracle equivalence over 500 instances", ok, f"{elapsed:.1f} s, {mismatches} mismatches")


# -------------------------------------------------------------- criterion 4


def _connected(n, edges):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_4_reduction_roundtrip():
    t0 = time.monotonic()
    graphs = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        names = [f"u{i}" for i in range(n)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not edges or not _connected(n, edges):
                continue
            reduction_roundtrip(Graph(names, [(names[a], names[b]) for a, b in edges]), range(1, n + 1))
            graphs += 1
    rng = random.Random(4242)
    randoms = 0
    while randoms < 50:
        n = rng.randint(2, 7)
        names = [f"u{i}" for i in range(n)]
        p = rng.uniform(0.25, 0.7)
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        if not edges:
            continue
        reduction_roundtrip(Graph(names, edges), range(1, n + 1))
        randoms += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    assert report(
        4,
        "reduction roundtrip",
        ok,
        f"{graphs} connected + {randoms} random graphs, {elapsed:.1f} s",
    )


# -------------------------------------------------------------- criterion 5


def test_5_feasibility_preservation_1000_rollouts():
    rng = random.Random(555)
    config = OptimizeConfig(mode="relaxed")
    edge_collisions = 0
    for i in range(1000):
        noise = (0.2, 0.4, 0.6)[i % 3]
        s, g, _ = random_rollout_instance(
            rng,
            height=rng.randint(4, 6),
            width=rng.randint(4, 6),
            n_agents=rng.randint(2, 5),
            horizon=rng.randint(8, 20),
            noise=noise,
        )
        result = optimize_schedule(s, g, config)
        rep = validate(result.schedule, g, "relaxed")
        assert rep.feasible, rep.violations
        edge_collisions += sum(1 for v in rep.violations if v.kind == "edge-collision")
    ok = edge_collisions == 0
    assert report(5, "feasibility preservation over 1000 rollouts", ok)


# -------------------------------------------------------------- criterion 6


def _random_map_32(rng):
    cells = [(r, c) for r in range(32) for c in range(32)]
    blocked = frozenset(rng.sample(cells, 102))  # ~10% obstacles
    return GridMap(32, 32, blocked)


def test_6_savings_regime_noisy_rollouts():
    rng = random.Random(606)
    config = OptimizeConfig(mode="relaxed")
    ratios = []
    produced = 0
    while produced < 20:
        grid = _random_map_32(rng)
        g = grid_to_graph(grid)
        free = [f"r{r}c{c}" for r, c in grid.free_cells()]
        n = rng.choice([16, 24, 32])
        starts = tuple(rng.sample(free, n))
        goals = tuple(rng.sample(free, n))
        s = noisy_rollout(
            PlanRequest(g, starts, goals, horizon=64, seed=rng.randrange(1 << 30), noise=0.4)
        )
        if cost_moves(s) == 0:
            continue
        result = optimize_schedule(s, g, config)
        ratios.append(result.stats["saving_ratio"])
        produced += 1
    median = statistics.median(ratios)
    ok = median >= 0.10
    assert report(
        6,
        "savings regime on 32x32 noisy rollouts",
        ok,
        f"median ratio {median:.3f} (reference range from richer policy inputs: 0.20-0.40)",
    )


# -------------------------------------------------------------- criterion 7


def test_7_runtime_envelope_soft():
    """Desk-scale corpus shaped like post-solver inputs: clean prioritized
    plans and mild-noise rollouts (the strong-solver regime the 1-second
    statistic refers to), plus a few heavy-noise cases that are expected
    to ride the 5-second anytime cap."""
    from mapf_collapse import prioritized_plan

    rng = random.Random(707)
    config = OptimizeConfig(mode="relaxed")
    timings = []

    def measure(kind, n_agents, horizon, noise):
        while True:
            grid = _random_map_32(rng)
            g = grid_to_graph(grid)
            free = [f"r{r}c{c}" for r, c in grid.free_cells()]
            starts = tuple(rng.sample(free, n_agents))
            goals = tuple(rng.sample(free, n_agents))
            req = PlanRequest(
                g, starts, goals, horizon=horizon, seed=rng.randrange(1 << 30), noise=noise
            )
            try:
                s = prioritized_plan(req) if kind == "plan" else noisy_rollout(req)
            except Exception:
                continue  # unlucky layout; redraw
            t0 = time.monotonic()
            optimize_schedule(s, g, config)
            timings.append(time.monotonic() - t0)
            return

    for n in (16, 32, 48, 64):
        measure("plan", n, 256, 0.0)
    for n, h in ((16, 64), (24, 64), (32, 96), (48, 96), (64, 96)):
        measure("roll", n, h, 0.2)
    for n, h in ((16, 64), (24, 64), (32, 64)):
        measure("roll", n, h, 0.4)

    within = sum(1 for t in timings if t <= 1.0) / len(timings)
    ok = within >= 0.9
    # soft target: report the measured fraction, never fail the suite
    report(7, "runtime envelope (soft)", ok, f"{within:.0%} within 1 s, max {max(timings):.2f} s")
    assert True


# -------------------------------------------------------------- criterion 8


def _strip_csv_timing(text):
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(text)))
    for r in rows:
        r["build_time_ms"] = r["solve_time_ms"] = ""
    buf = _io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else [], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_8_determinism(tmp_path, capsys):
    map_text = "type octile\nheight 6\nwidth 6\nmap\n" + "\n".join(["......"] * 6) + "\n"
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "m.map").write_text(map_text)
    for seed in range(6):
        code = main(
            [
                "gen",
                "--map",
                str(bench_dir / "m.map"),
                "--agents",
                "4",
                "--seed",
                str(seed),
                "--noise",
                "0.5",
                "--horizon",
                "20",
                "-o",
                str(bench_dir / f"i{seed}.json"),
            ]
        )
        assert code == 0
        capsys.readouterr()

    stats_texts = []
    for run_id in ("a", "b"):
        code = main(
            [
                "optimize",
                str(bench_dir / "i0.json"),
                "--mode",
                "relaxed",
                "-o",
                str(tmp_path / f"opt_{run_id}.json"),
                "--stats",
                str(tmp_path / f"stats_{run_id}.json"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        stats = json.loads((tmp_path / f"stats_{run_id}.json").read_text())
        stats_texts.append(json.dumps(strip_timing(stats), sort_keys=True))
    same_stats = stats_texts[0] == stats_texts[1]

    csv_texts = []
    for jobs in ("1", "8"):
        out_csv = tmp_path / f"bench_j{jobs}.csv"
        code = main(
            [
                "bench",
                str(bench_dir),
                "--out",
                str(out_csv),
                "--jobs",
                jobs,
                "--mode",
                "relaxed",
            ]
        )
        assert code == 0
        capsys.readouterr()
        csv_texts.append(_strip_csv_timing(out_csv.read_text()))
    same_csv = csv_texts[0] == csv_texts[1]

    ok = same_stats and same_csv
    assert report(8, "determinism (repeat runs, jobs 1 vs 8)", ok)


# -------------------------------------------------------------- criterion 9


def test_9_aba_filter_safety_500():
    # compensation is regime-dependent: the filter's removals pay for its
    # optimality damage on oracle-scale instances with the usual noise mix,
    # and degrade as congestion and noise grow (see the printed fraction)
    rng = random.Random(909)
    on = OptimizeConfig(mode="relaxed", aba_filter=True)
    off = OptimizeConfig(mode="relaxed", aba_filter=False)
    compensated = 0
    total = 500
    for i in range(total):
        noise = (0.2, 0.4, 0.6)[i % 3]
        size = rng.choice([4, 5])
        s, g, _ = random_rollout_instance(
            rng,
            height=size,
            width=size,
            n_agents=rng.randint(2, 3),
            horizon=rng.randint(8, 12),
            noise=noise,
        )
        filtered = aba_prefilter_detailed(s, moves=reference_moves(s))
        assert validate(filtered, g, "relaxed").feasible
        assert cost_moves(filtered) <= cost_moves(s)
        res_on = optimize_schedule(s, g, on)
        res_off = optimize_schedule(s, g, off)
        on_total = res_on.stats["ilp_saving"] + res_on.stats["aba_removed_moves"]
        if on_total >= res_off.stats["saving"]:
            compensated += 1
    fraction = compensated / total
    ok = fraction >= 0.95
    assert report(9, "ABA filter safety", ok, f"{fraction:.1%} compensated")
