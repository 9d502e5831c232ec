"""End-to-end optimization: filter, enumerate, constrain, solve, apply.

optimize_schedule validates the input in the requested mode, optionally
runs the ABA prefilter, generates candidates, builds relations and the
0/1 model, solves, and applies the selection, checking the result where
it differs from the validated input. The prefilter scans the A,B,A
triples once; one it leaves blocked is a candidate the solve may still
collapse. Reported cost/SoC deltas always compare the original input
against the final output, so the prefilter's removals are part of the
saving.

Each path's move steps are found once per call, by the input's
validation, and every stage reads them: the move counts and settle
times, the prefilter's triples, and candidate generation, which reads
each path's constant runs, and so its stays, from them. Past candidate
generation only each path's move count and last move step are kept.
Only the paths that differ from the input are stepped again: the
prefilter's rewrites, and the output's rows in apply_solution's check.
Nothing is kept on the caller's schedule.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .candidates import CandidateSet, aba_prefilter_detailed, generate_candidates
from .errors import InfeasibleInputError
from .graph import Graph
from .ilp import (
    CollapseSolution,
    IlpModel,
    apply_solution,
    build_model,
    solve_exact,
)
from .relations import RelationSet, build_relations
from .schedule import MODES, STRICT, Schedule, isr, move_steps, soc_from_moves, validate

DEFAULT_TIME_LIMIT_MS = 5000


@dataclass(frozen=True)
class OptimizeConfig:
    mode: str = STRICT
    aba_filter: bool = True
    time_limit_ms: int = DEFAULT_TIME_LIMIT_MS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.aba_filter, bool):
            raise ValueError(f"aba_filter must be a bool, got {self.aba_filter!r}")
        # the solve reads the limit in seconds, as a float
        limit = self.time_limit_ms
        if isinstance(limit, bool) or not isinstance(limit, (int, float)) or not limit <= sys.float_info.max:
            raise ValueError("time_limit_ms must be a number of milliseconds within float range")
        # 0 is valid: each component keeps its first dive (solve_greedy)
        if limit < 0:
            raise ValueError(f"time_limit_ms must be at least 0, got {limit}")

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "aba_filter": self.aba_filter,
            "time_limit_ms": self.time_limit_ms,
        }


@dataclass(frozen=True)
class OptimizeResult:
    schedule: Schedule
    solution: CollapseSolution
    model: IlpModel
    relations: RelationSet
    candidates: CandidateSet
    stats: dict = field(compare=False)


def optimize_schedule(
    schedule: Schedule,
    graph: Graph,
    config: OptimizeConfig = OptimizeConfig(),
) -> OptimizeResult:
    """Run the whole collapse pipeline on a feasible schedule.

    Raises InfeasibleInputError when the input fails validation in the
    configured mode, and ConsistencyError if the applied selection were
    ever to break feasibility (a bug, not an input problem).
    """
    t_start = time.monotonic()
    report = validate(schedule, graph, config.mode)
    if not report.feasible:
        raise InfeasibleInputError(report)

    moves = report.moves
    # of the input's moves only these are kept past candidate generation:
    # each path's count, for apply_solution's saving check, and its last
    # step, all soc_from_moves reads, for the output's settle times
    counts = list(map(len, moves))
    last_moves = [steps[-1:] for steps in moves]
    cost_before = sum(counts)
    soc_before = soc_from_moves(schedule, moves)
    # also the output's: no stage changes a path's last cell, as the
    # prefilter rewrites steps 1..T-1 only and a collapse over [a, b]
    # keeps path[b] == x and every later cell
    isr_before = isr(schedule)

    working = schedule
    if config.aba_filter:
        working = aba_prefilter_detailed(schedule, moves=moves)
        moves = [
            steps if ag is before else move_steps(ag.path)
            for steps, ag, before in zip(moves, working.agents, schedule.agents)
        ]
    cost_working = sum(map(len, moves))
    aba_removed = cost_before - cost_working

    t_build = time.monotonic()
    cands = generate_candidates(working, moves=moves)
    # nothing reads the move lists past here: freed, they are not held
    # through the solve and apply peaks
    del report, moves
    rel = build_relations(cands)
    model = build_model(rel, cands)
    build_time = time.monotonic() - t_build

    solution = solve_exact(model, config.time_limit_ms / 1000.0)
    final, restepped = apply_solution(
        working, cands, solution, graph, config.mode, cost=cost_working, validated=(schedule, counts)
    )
    for i, steps in restepped.items():
        last_moves[i] = steps
    # apply_solution checked that the output lost exactly the claimed saving
    cost_after = cost_working - solution.saving

    total_time = time.monotonic() - t_start
    stats = {
        "config": config.to_json_dict(),
        "n_agents": schedule.n_agents,
        "horizon": schedule.horizon,
        "cost_before": cost_before,
        "cost_after": cost_after,
        "saving": cost_before - cost_after,
        "saving_ratio": (cost_before - cost_after) / cost_before if cost_before else 0.0,
        "soc_before": soc_before,
        "soc_after": soc_from_moves(final, last_moves),
        "isr_before": isr_before,
        "isr_after": isr_before,
        "aba_removed_moves": aba_removed,
        "ilp_saving": solution.saving,
        "n_actions": len(cands.actions),
        "n_mutex": solution.n_mutex,
        "n_implications": len(model.implications),
        "n_invalid": len(model.fixed_zero),
        "optimal": solution.optimal,
        "nodes_explored": solution.nodes_explored,
        "n_components": solution.n_components,
        "n_components_proved": solution.n_components_proved,
        "upper_bound": aba_removed + solution.upper_bound,
        "gap": solution.upper_bound - solution.saving,
        "build_time_ms": build_time * 1000.0,
        "solve_time_ms": solution.solve_time * 1000.0,
        "total_time_ms": total_time * 1000.0,
    }
    return OptimizeResult(final, solution, model, rel, cands, stats)


TIMING_KEYS = ("build_time_ms", "solve_time_ms", "total_time_ms")


def strip_timing(stats: dict) -> dict:
    """Copy of a stats dict without wall-clock fields (for comparisons)."""
    return {k: v for k, v in stats.items() if k not in TIMING_KEYS}
