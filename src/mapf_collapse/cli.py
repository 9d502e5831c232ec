"""Command-line surface: validate, optimize, oracle, reduce, gen, bench.

Exit codes: 0 ok, 1 usage, 2 infeasible or malformed input,
3 internal consistency failure, 4 refused (size caps, degenerate
reduction, planning failure).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bench import rows_to_csv, run_bench
from .errors import (
    CapExceededError,
    ConsistencyError,
    InfeasibleInputError,
    InstanceFormatError,
    MapParseError,
    PlanningError,
    UnknownVertexError,
)
from .graph import grid_to_graph
from .oracle import DEFAULT_CANDIDATE_CAP, brute_force_collapse
from .pipeline import DEFAULT_TIME_LIMIT_MS, OptimizeConfig, optimize_schedule
from .planner import RNG_NAME, PlanRequest, noisy_rollout, prioritized_plan
from .reduction import reduce_independent_set
from .schedule import (
    MODES,
    STRICT,
    Instance,
    cost_moves,
    graph_from_json_dict,
    isr,
    load_instance,
    load_json,
    read_map_file,
    save_instance,
    save_json,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CONSISTENCY = 3
EXIT_REFUSED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_optimize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=MODES, default=STRICT)
    p.add_argument("--aba-filter", choices=("on", "off"), default="on")
    p.add_argument("--time-limit-ms", type=int, default=DEFAULT_TIME_LIMIT_MS)


def _config_from(args) -> OptimizeConfig:
    return OptimizeConfig(
        mode=args.mode,
        aba_filter=args.aba_filter == "on",
        time_limit_ms=args.time_limit_ms,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mapf-collapse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance for feasibility")
    p.add_argument("instance")
    p.add_argument("--mode", choices=MODES, default=STRICT)

    p = sub.add_parser("optimize", help="collapse closed subwalks of an instance")
    p.add_argument("instance")
    p.add_argument("-o", "--out", default=None, help="optimized instance path")
    p.add_argument("--stats", default=None, help="stats JSON path")
    p.add_argument("--dump-relations", default=None, help="debug relation dump path")
    _add_optimize_flags(p)

    p = sub.add_parser("oracle", help="brute-force optimum for a small instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=MODES, default=STRICT)
    p.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)

    p = sub.add_parser("reduce", help="compile an independent-set instance")
    p.add_argument("graph", help="graph JSON file for H")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--out", default=None, help="instance JSON path")

    p = sub.add_parser("gen", help="generate a schedule instance on a grid map")
    p.add_argument("--map", required=True, help="grid map file")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.4)
    p.add_argument("--horizon", type=int, default=128)
    p.add_argument("--mode", choices=("plan", "rollout"), default="rollout")
    p.add_argument("-o", "--out", required=True, help="instance JSON path")

    p = sub.add_parser("bench", help="optimize a directory of instances into a CSV")
    p.add_argument("directory")
    p.add_argument("--out", default="bench.csv", help="CSV output path")
    p.add_argument("--jobs", type=int, default=1)
    _add_optimize_flags(p)

    return parser


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    report = validate(inst.schedule, inst.graph, args.mode)
    _dump(report.to_json_dict())
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_optimize(args) -> int:
    inst = load_instance(args.instance)
    config = _config_from(args)
    result = optimize_schedule(inst.schedule, inst.graph, config)
    stem, _ = os.path.splitext(args.instance)
    out_path = args.out or f"{stem}.optimized.json"
    stats_path = args.stats or f"{stem}.stats.json"
    save_instance(Instance(inst.graph, result.schedule), out_path)
    save_json(result.stats, stats_path)
    if args.dump_relations:
        save_json(result.relations.to_json_dict(), args.dump_relations)
    _dump(result.stats)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    result = brute_force_collapse(inst.schedule, inst.graph, args.mode, args.cap)
    _dump(result.to_json_dict())
    return EXIT_OK


def _cmd_reduce(args) -> int:
    red = reduce_independent_set(graph_from_json_dict(load_json(args.graph)), args.k)
    inst = Instance(red.graph, red.schedule)
    out = args.out or f"{os.path.splitext(args.graph)[0]}.k{args.k}.instance.json"
    save_instance(inst, out)
    _dump(
        {
            "c0": red.c0,
            "beta": red.beta,
            "m": red.m,
            "n_agents": red.schedule.n_agents,
            "horizon": red.schedule.horizon,
            "instance": out,
        }
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    grid = read_map_file(args.map)
    graph = grid_to_graph(grid)
    free = graph.vertices
    if args.agents < 1:
        raise ValueError(f"--agents must be positive, got {args.agents}")
    if 2 * args.agents > len(free):
        raise CapExceededError(
            f"cannot place {args.agents} agents on {len(free)} free cells"
        )
    rng = random.Random(args.seed)
    starts = tuple(rng.sample(free, args.agents))
    goals = tuple(rng.sample(free, args.agents))
    request = PlanRequest(
        graph,
        starts,
        goals,
        horizon=args.horizon,
        seed=args.seed,
        noise=args.noise,
    )
    schedule = prioritized_plan(request) if args.mode == "plan" else noisy_rollout(request)
    map_rel = os.path.relpath(args.map, os.path.dirname(os.path.abspath(args.out)) or ".")
    data = Instance(graph, schedule).to_json_dict()
    data["graph"] = {"map_file": map_rel}
    save_json(data, args.out)
    _dump(
        {
            "out": args.out,
            "n_agents": schedule.n_agents,
            "horizon": schedule.horizon,
            "cost": cost_moves(schedule),
            "isr": isr(schedule),
            "seed": args.seed,
            "rng": RNG_NAME,
            "mode": args.mode,
        }
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _config_from(args)
    rows, summary = run_bench(args.directory, config, args.jobs)
    csv_text = rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _dump(summary)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "optimize": _cmd_optimize,
    "oracle": _cmd_oracle,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


_PARSER = build_parser()  # built once: parse_args leaves it unchanged


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleInputError as exc:
        print(f"infeasible input: {exc}", file=sys.stderr)
        _dump(exc.report.to_json_dict())
        return EXIT_INFEASIBLE
    except (InstanceFormatError, MapParseError, UnknownVertexError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (CapExceededError, PlanningError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
