"""Derive the constraint system for the collapse selection problem.

From a schedule and its candidate set this module extracts:
  * within-agent exclusions: same agent, intersecting intervals. They
    are kept implicit, as each candidate's (agent, a, b) span: one
    agent's candidates form an interval graph, so its conflicts are the
    overlaps of its spans and never need to be listed. overlap_pairs
    lists them on request, and RelationSet.exclusions_in does so lazily;
  * cross-agent exclusions: same collapse vertex, intersecting intervals;
  * dependencies: a selected collapse parks its agent on x over [a, b],
    so every other agent that visits x in that window must itself be
    moved away by one of its own "suitable" collapses;
  * invalid actions: a dependency with no suitable action at all.

Interval intersection is inclusive: touching intervals conflict.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .candidates import CandidateSet
from .errors import ConsistencyError
from .schedule import Schedule


class OccupancyIndex:
    """Per timestep, which agents stand on which vertex."""

    def __init__(self, schedule: Schedule):
        T = schedule.horizon
        self._occ: list[dict[str, tuple[int, ...]]] = []
        for t in range(T + 1):
            slot: dict[str, list[int]] = {}
            for i, ag in enumerate(schedule.agents):
                slot.setdefault(ag.path[t], []).append(i)
            self._occ.append({v: tuple(ids) for v, ids in slot.items()})

    def at(self, timestep: int, vertex: str) -> tuple[int, ...]:
        return self._occ[timestep].get(vertex, ())


class _IntervalNode:
    __slots__ = ("center", "by_start", "by_end", "left", "right")

    def __init__(self, intervals):
        # intervals: list of (a, b, idx)
        points = sorted(a for a, _, _ in intervals) + sorted(b for _, b, _ in intervals)
        self.center = points[len(points) // 2]
        here, lo, hi = [], [], []
        for iv in intervals:
            if iv[1] < self.center:
                lo.append(iv)
            elif iv[0] > self.center:
                hi.append(iv)
            else:
                here.append(iv)
        self.by_start = sorted(here, key=lambda iv: iv[0])
        self.by_end = sorted(here, key=lambda iv: -iv[1])
        self.left = _IntervalNode(lo) if lo else None
        self.right = _IntervalNode(hi) if hi else None

    def stab(self, k: int, out: list[int]) -> None:
        if k < self.center:
            for a, _, idx in self.by_start:
                if a > k:
                    break
                out.append(idx)
            if self.left is not None:
                self.left.stab(k, out)
        elif k > self.center:
            for _, b, idx in self.by_end:
                if b < k:
                    break
                out.append(idx)
            if self.right is not None:
                self.right.stab(k, out)
        else:
            for _, _, idx in self.by_start:
                out.append(idx)


class IntervalIndex:
    """Per-agent stabbing index over candidate intervals.

    query(agent, k) returns the agent's action indices with a <= k <= b,
    sorted; it is defined to agree with a linear scan.
    """

    def __init__(self, candidates: CandidateSet):
        self._roots: dict[int, _IntervalNode] = {}
        for agent, indices in candidates.per_agent.items():
            ivs = [(candidates.actions[i].a, candidates.actions[i].b, i) for i in indices]
            if ivs:
                self._roots[agent] = _IntervalNode(ivs)

    def query(self, agent: int, k: int) -> tuple[int, ...]:
        root = self._roots.get(agent)
        if root is None:
            return ()
        out: list[int] = []
        root.stab(k, out)
        out.sort()
        return tuple(out)


def interval_query(index: IntervalIndex, agent: int, k: int) -> tuple[int, ...]:
    """All of the agent's candidate actions whose interval contains k."""
    return index.query(agent, k)


@dataclass(frozen=True)
class Dependency:
    action: int
    blocker: int
    timestep: int
    suitable: tuple[int, ...]


Span = tuple[int, int, int]  # (agent, a, b)


def overlap_chains(spans: tuple[Span, ...], members) -> list[list[int]]:
    """Members split into overlap chains, each sorted by (a, b).

    Members are swept in span order, so agent by agent and then by
    (a, b); a new chain starts with each agent and wherever a span starts
    after every earlier span of its agent has ended. Each chain is
    connected by overlaps, and two members overlap only within one
    chain. Equal spans keep the order in which members are given.
    """
    chains: list[list[int]] = []
    agent = reach = None
    for i in sorted(members, key=spans.__getitem__):
        owner, a, b = spans[i]
        if owner != agent or a > reach:
            chains.append([i])
            agent, reach = owner, b
        else:
            chains[-1].append(i)
            if b > reach:
                reach = b
    return chains


def chain_pairs(spans: tuple[Span, ...], chain: list[int]) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of one chain's members whose spans intersect."""
    starts = [spans[i][1] for i in chain]
    pairs = []
    for pos, i in enumerate(chain):
        for j in chain[pos + 1 : bisect_right(starts, spans[i][2])]:
            pairs.append((i, j) if i < j else (j, i))
    return pairs


def overlap_pairs(spans: tuple[Span, ...], members) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of members on one agent whose spans intersect."""
    pairs: list[tuple[int, int]] = []
    for chain in overlap_chains(spans, members):
        pairs.extend(chain_pairs(spans, chain))
    pairs.sort()
    return pairs


def count_overlaps(spans: tuple[Span, ...], members) -> int:
    """len(overlap_pairs(spans, members)), with one bisect per span."""
    total = 0
    for chain in overlap_chains(spans, members):
        starts = [spans[i][1] for i in chain]
        for pos, i in enumerate(chain):
            total += bisect_right(starts, spans[i][2]) - pos - 1
    return total


@dataclass(frozen=True)
class RelationSet:
    """Constraints of one candidate set; spans[i] is candidate i's (agent, a, b)."""

    spans: tuple[Span, ...]
    exclusions_cross: tuple[tuple[int, int], ...]
    dependencies: tuple[Dependency, ...]
    invalid: tuple[int, ...]

    @cached_property
    def exclusions_in(self) -> tuple[tuple[int, int], ...]:
        """Within-agent exclusions as sorted pairs, listed on first access."""
        return tuple(overlap_pairs(self.spans, range(len(self.spans))))

    def to_json_dict(self) -> dict:
        return {
            "mutex_in": [list(p) for p in self.exclusions_in],
            "mutex_cross": [list(p) for p in self.exclusions_cross],
            "deps": [
                {"c": d.action, "j": d.blocker, "k": d.timestep, "S": list(d.suitable)}
                for d in self.dependencies
            ],
            "invalid": list(self.invalid),
        }


def _intersect(a: int, b: int, a2: int, b2: int) -> bool:
    return a <= b2 and a2 <= b


def build_relations(schedule: Schedule, candidates: CandidateSet) -> RelationSet:
    """Extract exclusions, dependencies, and invalid actions.

    Candidates must have been generated from this schedule. Dependencies
    are recorded per (action, blocking agent, timestep); exact duplicates
    (same action, same suitable set) are merged. An action whose suitable
    set is empty at some point becomes invalid and its remaining
    dependency scan is abandoned.
    """
    actions = candidates.actions
    T = schedule.horizon
    for c in actions:
        if not (0 <= c.a < c.b <= T):
            raise ConsistencyError(f"action {c} outside horizon {T}")
        if schedule.agents[c.agent].path[c.a] != c.x or schedule.agents[c.agent].path[c.b] != c.x:
            raise ConsistencyError(f"action {c} endpoints do not match the schedule")

    by_vertex: dict[str, list[int]] = {}
    for idx, c in enumerate(actions):
        by_vertex.setdefault(c.x, []).append(idx)
    exclusions_cross: list[tuple[int, int]] = []
    for group in by_vertex.values():
        for p in range(len(group)):
            ci = actions[group[p]]
            for q in range(p + 1, len(group)):
                cj = actions[group[q]]
                if ci.agent != cj.agent and _intersect(ci.a, ci.b, cj.a, cj.b):
                    pair = (group[p], group[q]) if group[p] < group[q] else (group[q], group[p])
                    exclusions_cross.append(pair)

    occ = OccupancyIndex(schedule)
    idx_by_agent = IntervalIndex(candidates)
    dependencies: list[Dependency] = []
    invalid: list[int] = []
    for ci, c in enumerate(actions):
        seen_suitable: set[tuple[int, ...]] = set()
        recorded: list[Dependency] = []
        bad = False
        for k in range(c.a, c.b + 1):
            for j in occ.at(k, c.x):
                if j == c.agent:
                    continue
                suitable = tuple(
                    s for s in idx_by_agent.query(j, k) if actions[s].x != c.x
                )
                if not suitable:
                    invalid.append(ci)
                    bad = True
                    break
                if suitable not in seen_suitable:
                    seen_suitable.add(suitable)
                    recorded.append(Dependency(ci, j, k, suitable))
            if bad:
                break
        dependencies.extend(recorded)

    exclusions_cross.sort()
    dependencies.sort(key=lambda d: (d.action, d.blocker, d.timestep))
    return RelationSet(
        tuple((c.agent, c.a, c.b) for c in actions),
        tuple(exclusions_cross),
        tuple(dependencies),
        tuple(sorted(invalid)),
    )
