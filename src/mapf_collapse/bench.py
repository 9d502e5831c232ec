"""Batch optimization over a directory of instance files.

Every *.json file in the directory becomes one CSV row; failures are
captured in the row's error column and never abort the batch. Rows are
sorted by instance id after the (optionally concurrent) run, so the
output is identical for any --jobs value.
"""

from __future__ import annotations

import csv
import io
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from .errors import UnsupportedScheduleError
from .pipeline import OptimizeConfig, optimize_schedule
from .schedule import agent_density, isr, load_instance

BENCH_COLUMNS = (
    "instance_id",
    "n_agents",
    "horizon",
    "map_type",
    "cost_before",
    "cost_after",
    "soc_before",
    "soc_after",
    "saving_ratio",
    "isr",
    "agent_density",
    "n_actions",
    "n_mutex",
    "n_implications",
    "build_time_ms",
    "solve_time_ms",
    "optimal",
    "error",
)

WITHIN_MS = 1000.0


def run_one(path: str, config: OptimizeConfig) -> dict:
    """Optimize a single instance file into a bench row dict."""
    instance_id = os.path.splitext(os.path.basename(path))[0]
    row = {col: "" for col in BENCH_COLUMNS}
    row["instance_id"] = instance_id
    try:
        inst = load_instance(path)
        sched = inst.schedule
        row["n_agents"] = sched.n_agents
        row["horizon"] = sched.horizon
        row["map_type"] = inst.map_name
        row["isr"] = f"{isr(sched):.6f}"
        if inst.grid is not None:
            try:
                row["agent_density"] = f"{agent_density(sched, inst.grid):.6f}"
            except UnsupportedScheduleError:
                pass
        t0 = time.monotonic()
        result = optimize_schedule(sched, inst.graph, config)
        elapsed_ms = (time.monotonic() - t0) * 1000.0
        stats = result.stats
        row.update(
            cost_before=stats["cost_before"],
            cost_after=stats["cost_after"],
            soc_before=stats["soc_before"],
            soc_after=stats["soc_after"],
            saving_ratio=f"{stats['saving_ratio']:.6f}",
            n_actions=stats["n_actions"],
            n_mutex=stats["n_mutex"],
            n_implications=stats["n_implications"],
            build_time_ms=f"{stats['build_time_ms']:.3f}",
            solve_time_ms=f"{stats['solve_time_ms']:.3f}",
            optimal=str(stats["optimal"]).lower(),
        )
        row["_elapsed_ms"] = elapsed_ms
    except Exception as exc:  # one bad instance must not abort the batch
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_bench(directory: str, config: OptimizeConfig, jobs: int = 1) -> tuple[list[dict], dict]:
    """Optimize every instance in the directory; returns (rows, summary)."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    paths = sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )
    if jobs == 1:
        rows = [run_one(p, config) for p in paths]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda p: run_one(p, config), paths))
    rows.sort(key=lambda r: r["instance_id"])

    ratios = [float(r["saving_ratio"]) for r in rows if r["saving_ratio"] != ""]
    timed = [r["_elapsed_ms"] for r in rows if "_elapsed_ms" in r]
    summary = {
        "instances": len(rows),
        "errors": sum(1 for r in rows if r["error"]),
        "mean_saving_ratio": statistics.mean(ratios) if ratios else None,
        "median_saving_ratio": statistics.median(ratios) if ratios else None,
        "within_1s_fraction": (
            sum(1 for ms in timed if ms <= WITHIN_MS) / len(timed) if timed else None
        ),
    }
    for r in rows:
        r.pop("_elapsed_ms", None)
    return rows, summary


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in BENCH_COLUMNS})
    return buf.getvalue()
