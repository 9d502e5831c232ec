"""Enumeration of closed-subwalk collapse candidates.

A candidate (agent, a, b, x) marks a segment with path[a] == path[b] == x
that can be rewritten to all-x, saving its interior edge traversals.
Reduced mode keeps only segment endpoints at maximal constant runs and
drops zero-saving candidates; exhaustive mode keeps every pair and backs
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


def prefix_moves(path: tuple[str, ...]) -> list[int]:
    """pref[t] = number of moves in path[0..t]; pref[0] = 0."""
    pref = [0] * len(path)
    for t in range(len(path) - 1):
        pref[t + 1] = pref[t] + (1 if path[t] != path[t + 1] else 0)
    return pref


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

    Exhaustive: every (a, b) pair with a < b and path[a] == path[b],
    including zero-weight pairs. Reduced: endpoints restricted to the
    first and last timestep of each maximal constant run, zero-weight
    pairs dropped.
    """
    if mode not in GENERATION_MODES:
        raise ValueError(f"mode must be one of {GENERATION_MODES}, got {mode!r}")
    actions: list[CollapseAction] = []
    for i, ag in enumerate(schedule.agents):
        pref = prefix_moves(ag.path)
        times: dict[str, list[int]] = {}
        if mode == EXHAUSTIVE:
            for t, v in enumerate(ag.path):
                times.setdefault(v, []).append(t)
        else:
            for v, first, last in _runs(ag.path):
                slot = times.setdefault(v, [])
                slot.append(first)
                if last != first:
                    slot.append(last)
        for x, ts in sorted(times.items()):
            for ai in range(len(ts)):
                for bi in range(ai + 1, len(ts)):
                    a, b = ts[ai], ts[bi]
                    w = pref[b] - pref[a]
                    if mode == REDUCED and w == 0:
                        continue
                    actions.append(CollapseAction(i, a, b, x, w))
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
