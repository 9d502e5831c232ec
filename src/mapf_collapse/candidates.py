"""Enumeration of closed-subwalk collapse candidates.

A candidate (agent, a, b) marks a segment with path[a] == path[b] == x
that can be rewritten to all-x, saving its interior edge traversals;
it is one row of the candidate set's columns, which no stage copies.
Reduced mode emits one candidate per pair of maximal constant runs of
one agent on x, from the last step of the earlier run to the first step
of the later one; exhaustive mode keeps every pair of visits and backs
the brute-force oracle. Runs and the A,B,A triples the ABA prefilter
scans once are read from each path's move steps, which callers may pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .schedule import Schedule, move_steps, path_runs

REDUCED = "reduced"
EXHAUSTIVE = "exhaustive"
GENERATION_MODES = (REDUCED, EXHAUSTIVE)

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


def aba_prefilter_detailed(schedule: Schedule, *, moves: Sequence[list[int]]) -> Schedule:
    """Rewrite A,B,A position triples to A,A,A where no collision results.

    One scan, agents in index order and timesteps ascending. A rewrite
    is skipped when another agent occupies A at the middle timestep in
    the current, partially rewritten schedule; the exact solve may still
    collapse that triple. Rewrites only remove moves, so no edge
    collision can be introduced. Agents whose path is not rewritten keep
    their AgentRecord.

    A triple is two consecutive moves s, s + 1 of one agent with
    path[s] == path[s + 2], found from the move steps: moves[i] is agent
    i's (move_steps of its path, as in validate's report). A rewrite
    makes its cell equal to both neighbours, so it creates no triple and
    removes only the agent's next one; a second scan could rewrite only
    a triple that a later agent's rewrite unblocked. The occupants at a
    timestep are one list over all agents, built when a triple there is
    first checked; cells at a timestep change only by a rewrite there,
    after that list exists, so it is kept current by writing each
    rewrite into it.
    """
    agents = schedule.agents
    columns: dict[int, list[str]] = {}
    rows: dict[int, list[str]] = {}
    for i, (ag, steps) in enumerate(zip(agents, moves)):
        p = ag.path
        row = None
        rewrote = -1  # middle step of the agent's last rewrite
        for s, nxt in zip(steps, steps[1:]):
            t = s + 1
            if nxt != t or p[s] != p[t + 1] or rewrote == s:
                continue  # not a triple, or the rewrite at s removed it
            a = p[s]
            column = columns.get(t)
            if column is None:
                column = columns[t] = [other.path[t] for other in agents]
            if a in column:
                continue  # someone else sits at A right now
            if row is None:
                row = rows[i] = list(p)
            column[i] = row[t] = a
            rewrote = t
    return schedule.with_paths(rows)
