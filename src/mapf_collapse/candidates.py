"""Enumeration of closed-subwalk collapse candidates.

A candidate (agent, a, b, x) marks a segment with path[a] == path[b] == x
that can be rewritten to all-x, saving its interior edge traversals.
Reduced mode emits one candidate per pair of maximal constant runs of
one agent on x, from the last step of the earlier run to the first step
of the later one; exhaustive mode keeps every pair of visits and backs
the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schedule import Schedule

REDUCED = "reduced"
EXHAUSTIVE = "exhaustive"
GENERATION_MODES = (REDUCED, EXHAUSTIVE)

ABA_DEFAULT_MAX_PASSES = 16


@dataclass(frozen=True)
class CollapseAction:
    agent: int
    a: int
    b: int
    x: str
    weight: int


@dataclass(frozen=True)
class CandidateSet:
    actions: tuple[CollapseAction, ...]
    per_agent: dict[int, tuple[int, ...]]


def _runs(path: tuple[str, ...]) -> list[tuple[str, int, int]]:
    """Maximal constant runs as (vertex, first, last)."""
    runs = []
    start = 0
    for t in range(1, len(path)):
        if path[t] != path[start]:
            runs.append((path[start], start, t - 1))
            start = t
    runs.append((path[start], start, len(path) - 1))
    return runs


def generate_candidates(schedule: Schedule, mode: str = REDUCED) -> CandidateSet:
    """Enumerate collapse candidates for every agent.

    A candidate's weight is the number of moves it removes, (run of b) -
    (run of a). Exhaustive: every (a, b) pair with a < b and path[a] ==
    path[b], zero-weight pairs inside one run included. Reduced: per pair
    of runs on x, only (last step of the earlier run, first step of the
    later run). Every other pair of steps in those runs saves the same
    and rewrites the same cells, as the cells inside a run are x already;
    its wider span conflicts with more and is suitable at the same stays,
    so the optimum is kept.
    """
    if mode not in GENERATION_MODES:
        raise ValueError(f"mode must be one of {GENERATION_MODES}, got {mode!r}")
    actions: list[CollapseAction] = []
    for i, ag in enumerate(schedule.agents):
        # per vertex: (run index, step as a, step as b) of each usable visit
        visits: dict[str, list[tuple[int, int, int]]] = {}
        for r, (v, first, last) in enumerate(_runs(ag.path)):
            slot = visits.setdefault(v, [])
            if mode == EXHAUSTIVE:
                slot.extend((r, t, t) for t in range(first, last + 1))
            else:
                slot.append((r, last, first))
        for x, vs in visits.items():
            for p, (ra, a, _) in enumerate(vs):
                for rb, _, b in vs[p + 1 :]:
                    actions.append(CollapseAction(i, a, b, x, rb - ra))
    actions.sort(key=lambda c: (c.agent, c.a, c.b))
    per_agent: dict[int, list[int]] = {}
    for idx, c in enumerate(actions):
        per_agent.setdefault(c.agent, []).append(idx)
    return CandidateSet(tuple(actions), {i: tuple(v) for i, v in per_agent.items()})


def collapse_paths(schedule: Schedule, actions) -> Schedule:
    """Apply collapse actions: positions on each [a, b] become x.

    Callers guarantee per-agent intervals do not conflict (disjoint, or
    touching/nested with the same vertex); application order is
    immaterial under that guarantee.
    """
    paths = [list(ag.path) for ag in schedule.agents]
    for act in actions:
        row = paths[act.agent]
        for t in range(act.a, act.b + 1):
            row[t] = act.x
    return schedule.with_paths(paths)


def aba_prefilter_detailed(
    schedule: Schedule,
    max_passes: int = ABA_DEFAULT_MAX_PASSES,
) -> tuple[Schedule, int]:
    """Rewrite A,B,A position triples to A,A,A where no collision results.

    Scans agents in index order and timesteps ascending, repeating full
    passes until a fixpoint or the pass cap. A rewrite is skipped when
    another agent occupies A at the middle timestep in the current,
    partially rewritten schedule. Rewrites only remove moves, so no edge
    collision can be introduced. Returns the filtered schedule and the
    number of passes executed (fixpoint pass included).
    """
    T = schedule.horizon
    paths = [list(ag.path) for ag in schedule.agents]
    # occupancy[t] = multiset of vertices occupied at t, as counts
    occupancy: list[dict[str, int]] = [dict() for _ in range(T + 1)]
    for row in paths:
        for t, v in enumerate(row):
            occupancy[t][v] = occupancy[t].get(v, 0) + 1

    passes = 0
    while passes < max_passes:
        passes += 1
        changed = False
        for i, row in enumerate(paths):
            for t in range(1, T):
                a = row[t - 1]
                if row[t + 1] != a or row[t] == a:
                    continue
                occ = occupancy[t]
                if occ.get(a, 0) > 0:
                    continue  # someone else sits at A right now
                b = row[t]
                occ[b] -= 1
                if occ[b] == 0:
                    del occ[b]
                occ[a] = occ.get(a, 0) + 1
                row[t] = a
                changed = True
        if not changed:
            break
    return schedule.with_paths(paths), passes
