#!/usr/bin/env python3
"""Benchmark of the collapse pipeline: seeded corpora, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload rollout32 --seed 1 --seconds 12 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates untraced and traced passes over the same corpus and reports
the per-layer metrics. ``--workload all`` runs every workload, each in a
fresh process so one workload's memory high-water mark cannot leak into
another's. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from gauge import Gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("rollout32", "grid64", "reduction", "batch_plans")
SETUP_REPEATS = 3
BENCH_JOBS = 2

# span name -> per-layer metric summing its duration over one traced pass
STAGE_METRICS = (
    ("schedule.load", "schedule.load_ms"),
    ("bench.density", "bench.density_ms"),
    ("schedule.validate", "schedule.validate_ms"),
    ("candidates.aba", "candidates.aba_ms"),
    ("candidates.generate", "candidates.generate_ms"),
    ("relations.build", "relations.build_ms"),
    ("ilp.build_model", "ilp.build_model_ms"),
    ("ilp.greedy", "ilp.greedy_ms"),
    ("ilp.solve", "ilp.solve_ms"),
    ("ilp.apply", "ilp.apply_ms"),
)
SETUP_METRICS = (
    ("graph.build", "graph.build_ms"),
    ("planner.generate", "planner.generate_ms"),
    ("reduction.compile", "reduction.compile_ms"),
)
COUNT_METRICS = (
    "candidates.aba_removed_moves",
    "candidates.n_actions",
    "relations.n_mutex_in",
    "relations.n_mutex_cross",
    "relations.n_deps",
    "relations.n_invalid",
    "ilp.n_vars",
    "ilp.n_mutex",
    "ilp.n_implications",
    "ilp.components",
    "ilp.nodes",
    "ilp.solve_capped",
)


@dataclass
class Outcome:
    case: str
    start: float  # perf_counter() when the optimize call began
    raw: float  # wall seconds of the optimize call
    seconds: float = 0.0  # the same at nominal machine speed
    deadline_s: float = 0.0  # wall seconds the solver ran into its time limit
    saving: int = 0
    optimal: bool = False
    cost_before: int = 0
    cost_after: int = 0
    saving_ratio: float = 0.0
    error: str = ""


@dataclass
class Pass:
    seconds: float  # optimize time of the whole pass at nominal machine speed
    factor: float  # nominal over actual machine speed during the pass
    outcomes: list[Outcome]
    spans: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    gauge = Gauge()
    gauge.sample()
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mapf_collapse  # (timed: import is part of set-up)
    except ImportError as exc:
        print(f"error: cannot import mapf_collapse from {src}: {exc}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    if not os.path.abspath(mapf_collapse.__file__).startswith(src + os.sep):
        print(f"error: mapf_collapse was imported from {mapf_collapse.__file__}, not {src}", file=sys.stderr)
        return 2
    gauge.sample()
    os.makedirs(OUT_DIR, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, gauge)
    try:
        if args.trace:
            result = bench.traced_run()
        else:
            result = bench.untraced_run(gauge.scaled(t0, t1))
    finally:
        bench.cleanup()
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            status = proc.returncode or 1
            continue
        child = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary, sort_keys=True))
    return status


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.4f} {metric['unit']}")


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, gauge: Gauge):
        from mapf_collapse import OptimizeConfig

        import workloads

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.gauge = gauge
        self.workloads = workloads
        self.corpus = None
        self.alpha: dict[str, int] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.config = OptimizeConfig(
            mode=workloads.MODES[workload], time_limit_ms=workloads.TIME_LIMIT_MS
        )

    # ------------------------------------------------------------ set-up

    def _build(self, span=None) -> tuple[float, float]:
        """Generate the corpus; returns (set-up seconds at nominal speed, speed factor)."""
        self.corpus = None
        gc.collect()
        self.gauge.sample()
        t0 = time.perf_counter()
        self.corpus = self.workloads.build_corpus(self.workload, self.seed, OUT_DIR, span)
        t1 = time.perf_counter()
        self.gauge.sample()
        factor = self.gauge.factor(t0, t1)
        return (t1 - t0) * factor, factor

    def _report_corpus(self, fingerprints: list[str]) -> None:
        print(
            f"corpus {self.workload} seed={self.seed} cases={len(self.corpus.cases)} "
            f"mode={self.config.mode} time_limit_ms={self.config.time_limit_ms} "
            f"sha256={fingerprints[0]}"
        )
        if len(set(fingerprints)) != 1:
            self.errors.append(f"set-up is not deterministic: fingerprints {sorted(set(fingerprints))}")

    def cleanup(self) -> None:
        if self.corpus is not None and self.corpus.directory is not None:
            shutil.rmtree(self.corpus.directory, ignore_errors=True)

    # ------------------------------------------------------------ checks

    def check(self, case, schedule_out, stats) -> str:
        """Empty string when the output passes every check, else the reason."""
        from mapf_collapse import brute_force_mis, cost_moves, validate

        report = validate(schedule_out, case.graph, self.config.mode)
        if not report.feasible:
            return f"output infeasible in {self.config.mode} mode: {report.violations[0]}"
        saving = stats["saving"]
        if saving != stats["cost_before"] - stats["cost_after"]:
            return f"saving {saving} != cost_before - cost_after"
        removed = cost_moves(case.schedule) - cost_moves(schedule_out)
        if removed != saving:
            return f"saving {saving} but the output has {removed} fewer moves than the input"
        if case.source is not None:
            if case.id not in self.alpha:
                self.alpha[case.id] = brute_force_mis(case.source)
            expected = 4 * len(case.source.edges) + 2 * self.alpha[case.id]
            if saving != expected:
                return f"saving {saving} != 4m + 2*alpha = {expected}"
        return ""

    def _outcome(self, case, start, raw, result=None, exc=None) -> Outcome:
        self.attempted += 1
        if exc is not None:
            return Outcome(case.id, start, raw, error=f"{type(exc).__name__}: {exc}")
        stats = result.stats
        return Outcome(
            case.id,
            start,
            raw,
            saving=stats["saving"],
            optimal=stats["optimal"],
            cost_before=stats["cost_before"],
            cost_after=stats["cost_after"],
            saving_ratio=stats["saving_ratio"],
            error=self.check(case, result.schedule, stats),
            deadline_s=0.0 if stats["optimal"] else stats["solve_time_ms"] / 1000.0,
        )

    @staticmethod
    def _scale(outcome: Outcome, factor: float) -> None:
        """Scale the CPU-bound part of the call to nominal speed. A solve
        that ran into the time limit lasted the limit's wall time however
        fast the machine was, so that part is left as measured."""
        cpu = outcome.raw - outcome.deadline_s
        outcome.seconds = cpu * factor + outcome.deadline_s

    # ------------------------------------------------------------ passes

    def optimize_pass(self, tracer=None, counts=None) -> Pass:
        """One closed-loop pass over the corpus, one instance at a time."""
        from mapf_collapse import optimize_schedule

        if self.corpus.directory is not None:
            return self.bench_pass(tracer, counts)
        first_span = len(tracer.spans) if tracer else 0
        outcomes = []
        self.gauge.sample()
        pass_start = time.perf_counter()
        for case in self.corpus.cases:
            self.gauge.maybe_sample()
            result = exc = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = optimize_schedule(case.schedule, case.graph, self.config)
                else:
                    with tracer.instance(case.id):
                        result = tracer.call(
                            "pipeline.optimize", optimize_schedule, case.schedule, case.graph, self.config
                        )
            except Exception as exc_:  # one bad instance must not end the run
                exc = exc_
            t1 = time.perf_counter()
            outcomes.append(self._outcome(case, t0, t1 - t0, result, exc))
            if counts is not None and result is not None:
                counts[case.id] = instance_counts(result)
        pass_end = time.perf_counter()
        self.gauge.sample()
        for o in outcomes:
            self._scale(o, self.gauge.factor(o.start, o.start + o.raw))
        spans = tracer.spans[first_span:] if tracer else []
        factor = self.gauge.factor(pass_start, pass_end)
        return Pass(sum(o.seconds for o in outcomes), factor, outcomes, spans)

    def bench_pass(self, tracer=None, counts=None) -> Pass:
        """One run_bench call over the instance directory.

        run_bench owns the loop, so the optimize call of every file is
        reached through the bench module: even untraced, a light tracer
        records one span per file around optimize_schedule to give its
        wall time and output schedule to the checks.
        """
        from mapf_collapse import bench

        from tracing import Tracer, patched

        full = tracer is not None
        tracer = tracer or Tracer()
        captured = {}

        def keep(result):
            captured[tracer.current_instance()] = result
            return {}

        original_run_one = bench.run_one

        def run_one(path, config):
            case_id = os.path.splitext(os.path.basename(path))[0]
            with tracer.instance(case_id):
                return tracer.call("bench.run_one", original_run_one, path, config)

        replacements = [
            (bench, "run_one", run_one),
            (bench, "optimize_schedule", tracer.wrap("pipeline.optimize", bench.optimize_schedule, keep)),
        ]
        if full:
            replacements += [
                (bench, "load_instance", tracer.wrap("schedule.load", bench.load_instance)),
                (bench, "agent_density", tracer.wrap("bench.density", bench.agent_density)),
            ]
        first_span = len(tracer.spans)
        self.gauge.sample()
        with patched(replacements):
            t0 = time.perf_counter()
            rows, _summary = bench.run_bench(self.corpus.directory, self.config, jobs=BENCH_JOBS)
            t1 = time.perf_counter()
        self.gauge.sample()
        factor = self.gauge.factor(t0, t1)

        spans = tracer.spans[first_span:]
        optimize_spans = {s.instance: s for s in spans if s.name == "pipeline.optimize"}
        by_id = {row["instance_id"]: row for row in rows}
        outcomes = []
        for case in self.corpus.cases:
            row = by_id.get(case.id)
            result = captured.get(case.id)
            raw = optimize_spans[case.id].duration if case.id in optimize_spans else 0.0
            if row is None or row["error"] or result is None:
                reason = "no row" if row is None else (row["error"] or "optimize_schedule not reached")
                outcome = self._outcome(case, t0, raw, exc=RuntimeError(reason))
            else:
                outcome = self._outcome(case, t0, raw, result)
                if not outcome.error and int(row["cost_after"]) != outcome.cost_after:
                    outcome.error = "bench row disagrees with the optimize result"
                if counts is not None:
                    counts[case.id] = instance_counts(result)
            self._scale(outcome, factor)
            outcomes.append(outcome)
        if len(rows) != len(self.corpus.cases):
            self.errors.append(f"run_bench returned {len(rows)} rows for {len(self.corpus.cases)} files")
        # the threads overlap, so the wall time is scaled as one CPU-bound span
        return Pass((t1 - t0) * factor, factor, outcomes, spans if full else [])

    # ------------------------------------------------------------ runs

    def untraced_run(self, import_s: float) -> dict:
        setup_times, fingerprints = [], []
        for _ in range(SETUP_REPEATS):
            setup_times.append(self._build()[0])
            fingerprints.append(self.corpus.fingerprint())
        self._report_corpus(fingerprints)
        setup_s = import_s + statistics.median(setup_times)
        gc.collect()

        passes: list[Pass] = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < self.seconds:
            passes.append(self.optimize_pass())
        first = passes[0].outcomes
        flips = sum(
            1
            for p in passes[1:]
            for a, b in zip(first, p.outcomes)
            if (a.saving, a.optimal) != (b.saving, b.optimal) and not (a.error or b.error)
        )
        per_case = [statistics.median(p.outcomes[i].seconds for p in passes) for i in range(len(first))]
        if self.corpus.directory is not None:
            instances_per_s = len(first) / statistics.median(p.seconds for p in passes)
        else:
            instances_per_s = len(first) / sum(per_case)
        failed = sum(1 for p in passes for o in p.outcomes if o.error) + len(self.errors)
        self._print_errors(passes)

        metrics = {
            "optimize_ms_p50": _metric(1000.0 * statistics.median(per_case), "ms"),
            "instances_per_s": _metric(instances_per_s, "1/s"),
            "moves_after_total": _metric(sum(o.cost_after for o in first), "moves"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
        raw_p50 = 1000.0 * statistics.median(
            statistics.median(p.outcomes[i].raw for p in passes) for i in range(len(first))
        )
        print(
            f"{self.workload}: {len(passes)} passes over {len(first)} instances; "
            f"{flips} saving/optimal flips between passes (load dependence); "
            f"machine speed factor {statistics.median(p.factor for p in passes):.3f}; "
            f"raw wall-clock optimize_ms_p50 {raw_p50:.4f} ms"
        )
        _print_metrics(metrics)
        print("  not gated:")
        _print_metrics(quality_metrics(first))
        return {"correct": failed == 0, "attempted": self.attempted, "failed": failed, "metrics": metrics}

    def traced_run(self) -> dict:
        from tracing import Tracer

        tracer = Tracer()
        _, setup_factor = self._build(tracer.call)
        setup_spans = list(tracer.spans)
        self._report_corpus([self.corpus.fingerprint()])
        gc.collect()

        ratios, plain_passes, traced_passes, counts = [], [], [], {}
        t0 = time.perf_counter()
        while not traced_passes or time.perf_counter() - t0 < self.seconds:
            plain = self.optimize_pass()
            tracer.pass_no += 1
            with tracing_patches(tracer):
                traced = self.optimize_pass(tracer, None if traced_passes else counts)
            ratios.append(traced.seconds / plain.seconds)
            plain_passes.append(plain)
            traced_passes.append(traced)
            for a, b in zip(plain.outcomes, traced.outcomes):
                if (a.saving, a.optimal) != (b.saving, b.optimal):
                    self.errors.append(
                        f"{a.case}: traced saving/optimal {b.saving}/{b.optimal} "
                        f"!= untraced {a.saving}/{a.optimal}"
                    )
        all_passes = plain_passes + traced_passes
        failed = sum(1 for p in all_passes for o in p.outcomes if o.error) + len(self.errors)
        self._print_errors(all_passes)

        metrics = layer_metrics(setup_spans, setup_factor, traced_passes, counts)
        metrics["trace.overhead_ratio"] = _metric(statistics.median(ratios), "ratio")
        metrics.update(quality_metrics(traced_passes[0].outcomes))
        spans_path = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl")
        tracer.dump(spans_path)
        print(
            f"{self.workload}: {len(traced_passes)} untraced/traced pass pairs; "
            f"spans in {os.path.relpath(spans_path, ROOT)}"
        )
        _print_metrics(dict(sorted(metrics.items())))
        return {"correct": failed == 0, "attempted": self.attempted, "failed": failed, "metrics": metrics}

    def _print_errors(self, passes) -> None:
        errors = [o for p in passes for o in p.outcomes if o.error]
        for o in errors[:10]:
            print(f"error {o.case}: {o.error}")
        for message in self.errors:
            print(f"error: {message}")


def tracing_patches(tracer):
    """Wrap each stage call that optimize_schedule makes, in pipeline order."""
    from mapf_collapse import ilp, pipeline

    from tracing import patched

    def greedy_note(solution):
        return {"saving": solution.saving}

    return patched(
        [
            (pipeline, "validate", tracer.wrap("schedule.validate", pipeline.validate)),
            (pipeline, "aba_prefilter_detailed", tracer.wrap("candidates.aba", pipeline.aba_prefilter_detailed)),
            (pipeline, "generate_candidates", tracer.wrap("candidates.generate", pipeline.generate_candidates)),
            (pipeline, "build_relations", tracer.wrap("relations.build", pipeline.build_relations)),
            (pipeline, "build_model", tracer.wrap("ilp.build_model", pipeline.build_model)),
            (pipeline, "solve_exact", tracer.wrap("ilp.solve", pipeline.solve_exact)),
            (ilp, "solve_greedy", tracer.wrap("ilp.greedy", ilp.solve_greedy, greedy_note)),
            (pipeline, "apply_solution", tracer.wrap("ilp.apply", pipeline.apply_solution)),
        ]
    )


def model_components(model) -> tuple[int, int]:
    """(number, size of largest) of connected components among free variables.

    Mutex pairs and implications (owner with every free suitable member)
    are the edges; variables fixed to zero take no part.
    """
    parent = list(range(model.n_vars))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in model.mutex:
        parent[find(a)] = find(b)
    for owner, suitable in model.implications:
        for s in suitable:
            if s not in model.fixed_zero:
                parent[find(owner)] = find(s)
    sizes = Counter(find(v) for v in range(model.n_vars) if v not in model.fixed_zero)
    return len(sizes), max(sizes.values(), default=0)


def instance_counts(result) -> dict:
    """Per-instance work counts read from the public OptimizeResult fields."""
    rel, model, sol = result.relations, result.model, result.solution
    n_components, largest = model_components(model)
    return {
        "candidates.aba_removed_moves": result.stats["aba_removed_moves"],
        "candidates.n_actions": len(result.candidates.actions),
        "relations.n_mutex_in": len(rel.exclusions_in),
        "relations.n_mutex_cross": len(rel.exclusions_cross),
        "relations.n_deps": len(rel.dependencies),
        "relations.n_invalid": len(rel.invalid),
        "ilp.n_vars": model.n_vars,
        "ilp.n_mutex": len(model.mutex),
        "ilp.n_implications": len(model.implications),
        "ilp.components": n_components,
        "ilp.largest_component_vars": largest,
        "ilp.nodes": sol.nodes_explored,
        "ilp.solve_capped": int(not sol.optimal),
        "ilp.saving": sol.saving,
    }


def layer_metrics(setup_spans, setup_factor, traced_passes, counts) -> dict:
    """Per-layer metrics: stage times are per-pass sums at nominal speed,
    median over the traced passes; counts come from the first traced pass."""
    from tracing import self_times

    metrics = {}
    for span_name, metric in SETUP_METRICS:
        total = sum(s.duration for s in setup_spans if s.name == span_name)
        metrics[metric] = _metric(1000.0 * total * setup_factor, "ms")

    def pass_sums(p: Pass) -> dict:
        sums = {span_name: 0.0 for span_name, _ in STAGE_METRICS}
        for s in p.spans:
            if s.name in sums:
                sums[s.name] += s.duration
        own = self_times(p.spans)
        sums["pipeline.self"] = sum(own[s.id] for s in p.spans if s.name == "pipeline.optimize")
        return {name: 1000.0 * value * p.factor for name, value in sums.items()}

    sums = [pass_sums(p) for p in traced_passes]
    for span_name, metric in STAGE_METRICS + (("pipeline.self", "pipeline.self_ms"),):
        metrics[metric] = _metric(statistics.median(s[span_name] for s in sums), "ms")

    for name in COUNT_METRICS:
        metrics[name] = _metric(sum(c[name] for c in counts.values()), "count")
    metrics["ilp.largest_component_vars"] = _metric(
        max((c["ilp.largest_component_vars"] for c in counts.values()), default=0), "count"
    )
    pairs_in = metrics["relations.n_mutex_in"]["value"]
    pairs_all = pairs_in + metrics["relations.n_mutex_cross"]["value"]
    metrics["ilp.within_agent_mutex_share"] = _metric(pairs_in / pairs_all if pairs_all else 0.0, "ratio")
    first = traced_passes[0]
    greedy = {s.instance: s.attrs["saving"] for s in first.spans if s.name == "ilp.greedy"}
    metrics["ilp.greedy_gap"] = _metric(
        sum(c["ilp.saving"] - greedy[case] for case, c in counts.items() if case in greedy), "moves"
    )
    solve_s = first.factor * sum(s.duration for s in first.spans if s.name == "ilp.solve")
    metrics["ilp.nodes_per_s"] = _metric(metrics["ilp.nodes"]["value"] / solve_s if solve_s else 0.0, "1/s")
    return metrics


def quality_metrics(outcomes: list[Outcome]) -> dict:
    """What the optimizer achieved on one pass: saving, proofs and errors."""
    ok = [o for o in outcomes if not o.error]
    n = len(outcomes)
    return {
        "pipeline.saving_total": _metric(sum(o.saving for o in ok), "moves"),
        "pipeline.saving_ratio_median": _metric(
            statistics.median(o.saving_ratio for o in ok) if ok else 0.0, "ratio"
        ),
        "pipeline.optimal_fraction": _metric(sum(1 for o in ok if o.optimal) / n, "ratio"),
        "pipeline.error_fraction": _metric((n - len(ok)) / n, "ratio"),
    }


if __name__ == "__main__":
    sys.exit(main())
