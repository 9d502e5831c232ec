"""Enumeration of closed-subwalk collapse candidates.

A candidate (agent, a, b) marks a segment with path[a] == path[b] == x
that can be rewritten to all-x, saving its interior edge traversals;
it is one row of the candidate set's columns, which no stage copies.
Reduced mode emits one candidate per pair of maximal constant runs of
one agent on x, from the last step of the earlier run to the first step
of the later one; exhaustive mode keeps every pair of visits and backs
the brute-force oracle. Runs and the ABA prefilter's A,B,A triples are
read from each path's move steps, which the caller may pass in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .schedule import Schedule, move_steps, path_runs

REDUCED = "reduced"
EXHAUSTIVE = "exhaustive"
GENERATION_MODES = (REDUCED, EXHAUSTIVE)

ABA_DEFAULT_MAX_PASSES = 16


Span = tuple[int, int, int]  # (agent, a, b)


@dataclass(frozen=True)
class CandidateSet:
    """Collapse candidates of one schedule as columns sorted by (agent, a, b).

    actions[i] is candidate i's (agent, a, b), vertices[i] its x and
    weights[i] the number of moves it removes. Agent j's candidates are
    the ones from bisect_left(actions, (j,)) to bisect_left(actions,
    (j + 1,)). stays[x] lists every agent's stays (first, last, agent) on
    each vertex x that some candidate collapses onto, sorted.
    """

    actions: tuple[Span, ...]
    vertices: tuple[str, ...]
    weights: tuple[int, ...]
    stays: dict[str, list[tuple[int, int, int]]]


def generate_candidates(
    schedule: Schedule, mode: str = REDUCED, moves: Sequence[list[int]] | None = None
) -> CandidateSet:
    """Enumerate every agent's collapse candidates and the stays on their vertices.

    moves[i] may give agent i's move steps (move_steps of its path, as
    in validate's report); the paths are stepped when it is not given.
    Each agent's constant runs are read from its moves (path_runs).

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
    if moves is None:
        moves = [move_steps(ag.path) for ag in schedule.agents]
    actions: list[Span] = []
    vertices: list[str] = []
    weights: list[int] = []
    stays: dict[str, list[tuple[int, int, int]]] = {}
    for i, (ag, steps) in enumerate(zip(schedule.agents, moves)):
        agent_runs = path_runs(ag.path, steps)
        # per vertex: the indices of the agent's runs on it
        visits: dict[str, list[int]] = {}
        for r, (v, first, last) in enumerate(agent_runs):
            stays.setdefault(v, []).append((first, last, i))
            visits.setdefault(v, []).append(r)
        rows: list[tuple[int, int, str, int]] = []
        for x, rs in visits.items():
            if len(rs) < 2 and mode == REDUCED:
                continue
            # (run index, step as a, step as b) of each usable visit
            if mode == EXHAUSTIVE:
                vs = [(r, t, t) for r in rs for t in range(agent_runs[r][1], agent_runs[r][2] + 1)]
            else:
                vs = [(r, agent_runs[r][2], agent_runs[r][1]) for r in rs]
            for p, (ra, a, _) in enumerate(vs):
                for rb, _, b in vs[p + 1 :]:
                    rows.append((a, b, x, rb - ra))
        # a fixes x = path[a] and (a, b) is unique: this is the (agent, a, b) order
        rows.sort()
        actions.extend((i, a, b) for a, b, _, _ in rows)
        vertices.extend(x for _, _, x, _ in rows)
        weights.extend(w for _, _, _, w in rows)
    collapsed = set(vertices)
    stays = {x: sorted(vs) for x, vs in stays.items() if x in collapsed}
    return CandidateSet(tuple(actions), tuple(vertices), tuple(weights), stays)


def collapse_paths(schedule: Schedule, candidates: CandidateSet, selection) -> Schedule:
    """Apply the selected candidates: positions on each [a, b] become x.

    Callers guarantee per-agent intervals do not conflict (disjoint, or
    touching/nested with the same vertex); application order is
    immaterial under that guarantee.
    """
    paths: dict[int, list[str]] = {}
    for i in selection:
        agent, a, b = candidates.actions[i]
        row = paths.get(agent)
        if row is None:
            row = paths[agent] = list(schedule.agents[agent].path)
        row[a : b + 1] = [candidates.vertices[i]] * (b - a + 1)
    return schedule.with_paths(paths)


def aba_prefilter_detailed(
    schedule: Schedule,
    max_passes: int = ABA_DEFAULT_MAX_PASSES,
    *,
    moves: Sequence[list[int]],
) -> tuple[Schedule, int]:
    """Rewrite A,B,A position triples to A,A,A where no collision results.

    Scans agents in index order and timesteps ascending, repeating full
    passes until a fixpoint or the pass cap. A rewrite is skipped when
    another agent occupies A at the middle timestep in the current,
    partially rewritten schedule. Rewrites only remove moves, so no edge
    collision can be introduced. Returns the filtered schedule and the
    number of passes executed (fixpoint pass included); agents whose
    path is not rewritten keep their AgentRecord.

    A triple is two consecutive moves s, s + 1 of one agent with
    path[s] == path[s + 2], found from the move steps: moves[i] is agent
    i's (move_steps of its path, as in validate's report). A rewrite
    makes its cell equal to both neighbours, so it never creates a
    triple: each pass re-checks only the triples left from the pass
    before, in the same order a scan over every cell would meet them.
    The occupants at a timestep are one list over all agents, built when
    a triple there is first checked; cells at a timestep change only by
    a rewrite there, after that list exists, so it is kept current by
    writing each rewrite into it.
    """
    agents = schedule.agents
    # per agent with a triple: (index, path as a list, middle steps of its triples)
    pending: list[tuple[int, list[str], list[int]]] = []
    for i, (ag, steps) in enumerate(zip(agents, moves)):
        p = ag.path
        mids = [s + 1 for s, nxt in zip(steps, steps[1:]) if nxt == s + 1 and p[s] == p[s + 2]]
        if mids:
            pending.append((i, list(p), mids))

    columns: dict[int, list[str]] = {}
    rewritten: set[int] = set()
    passes = 0
    while passes < max_passes:
        passes += 1
        changed = False
        for i, row, mids in pending:
            blocked = []
            for t in mids:
                a = row[t - 1]
                if row[t + 1] != a or row[t] == a:
                    continue  # a rewrite next to it removed this triple
                column = columns.get(t)
                if column is None:
                    column = columns[t] = [ag.path[t] for ag in agents]
                if a in column:
                    blocked.append(t)  # someone else sits at A right now
                    continue
                column[i] = row[t] = a
                rewritten.add(i)
                changed = True
            mids[:] = blocked
        if not changed:
            break
    return schedule.with_paths({i: row for i, row, _ in pending if i in rewritten}), passes
