"""Derive the constraint system for the collapse selection problem.

From a candidate set alone this module extracts:
  * within-agent exclusions: same agent, intersecting intervals. They
    are kept implicit, as each candidate's (agent, a, b) span: one
    agent's candidates form an interval graph, so its conflicts are the
    overlaps of its spans and never need to be listed;
  * dependencies: a selected collapse parks its agent on x over [a, b],
    so every other agent that visits x in that window must itself be
    moved away by one of its own "suitable" collapses;
  * invalid actions: a dependency with no suitable action at all.

Cross-agent exclusions (same collapse vertex, intersecting intervals)
are implied by the other two and are not part of the model. Take two
agents' candidates on x with intersecting intervals, c over [a, b] and
c' starting no earlier, at a' in [a, b]: the agent of c' is on x at a',
so c depends on that stay, and every suitable member covers the whole
stay and so overlaps c' on that agent. Selecting c and c' together
breaks c's dependency or a within-agent exclusion, and if no member
exists c is invalid.
No solver path lists a pair of either kind. intersecting_pairs lists
them on request, for RelationSet.exclusions_in and exclusions_cross and
for IlpModel.mutex.

Dependencies are found per stay, an agent's maximal constant run
(first, last) on one vertex, as listed by the candidate set, which
reads stays and candidates off one walk over the runs. A blocker's
candidate on another vertex starts and ends on that vertex, so if it
covers one step of the blocker's stay on x it covers the whole stay:
the suitable set is the same at every step of a stay and is computed
once for it. A candidate's stays are walked once in their stored order;
an empty suitable set makes the candidate invalid, and an invalid
candidate records no dependency.

Interval intersection is inclusive: touching intervals conflict.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .candidates import CandidateSet, Span


@dataclass(frozen=True)
class Dependency:
    action: int
    blocker: int
    timestep: int
    suitable: tuple[int, ...]


def intersecting_pairs(spans: tuple[Span, ...], groups) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of members of one group whose spans
    intersect, touching included.

    Each group is sorted by start, and a member meets exactly the later
    members that start by its end: one bisect of the starts finds them.
    """
    pairs: list[tuple[int, int]] = []
    for group in groups:
        group = sorted(group, key=lambda i: spans[i][1])
        starts = [spans[i][1] for i in group]
        for pos, i in enumerate(group):
            for j in group[pos + 1 : bisect_right(starts, spans[i][2])]:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def grouped(keys: Sequence) -> list[list[int]]:
    """Indices of equal keys, one ascending list per key."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [list(group) for _, group in groupby(order, keys.__getitem__)]


@dataclass(frozen=True)
class RelationSet:
    """Constraints of one candidate set; spans and vertices are its
    (agent, a, b) and vertex columns, shared, not copied."""

    spans: tuple[Span, ...]
    vertices: tuple[str, ...]
    dependencies: tuple[Dependency, ...]
    invalid: tuple[int, ...]

    @cached_property
    def exclusions_in(self) -> tuple[tuple[int, int], ...]:
        """Within-agent exclusions as sorted pairs, listed on first access."""
        return tuple(intersecting_pairs(self.spans, grouped([agent for agent, _, _ in self.spans])))

    @cached_property
    def exclusions_cross(self) -> tuple[tuple[int, int], ...]:
        """Cross-agent exclusions as sorted pairs, listed on first access;
        the dependencies and within-agent exclusions imply them."""
        spans = self.spans
        return tuple(
            (i, j) for i, j in intersecting_pairs(spans, grouped(self.vertices)) if spans[i][0] != spans[j][0]
        )

    def to_json_dict(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "vertices": list(self.vertices),
            "deps": [
                {"c": d.action, "j": d.blocker, "k": d.timestep, "S": list(d.suitable)}
                for d in self.dependencies
            ],
            "invalid": list(self.invalid),
        }


def build_relations(candidates: CandidateSet) -> RelationSet:
    """Extract dependencies and invalid actions; exclusions are listed
    only on request.

    Reads only the candidate set: its span and vertex columns, sorted by
    (agent, a, b), so that an agent's candidates starting before a step
    are one bisect range of the spans, and the stays on each collapse
    vertex. An action's blocking stays are the other agents' stays on
    its vertex that meet [a, b], walked in (first, last, agent) order.
    Each records a dependency at the first step it shares with [a, b],
    max(a, first), unless the action already has one with the same
    suitable set; equal sets belong to one agent, whose stays on x meet
    [a, b] in step order, so the earliest is kept. Each stay's set is
    built and interned once, so equal sets are one object and are
    compared by identity. An action with an empty suitable set at some
    stay is invalid and records no dependency.
    """
    actions, vertices = candidates.actions, candidates.vertices
    suitable_by_stay: dict[tuple[int, int], tuple[int, ...]] = {}
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}  # one object per distinct set

    dependencies: list[Dependency] = []
    invalid: list[int] = []
    for ci, ((agent, a, b), x) in enumerate(zip(actions, vertices)):
        vstays = candidates.stays[x]
        found: dict[int, Dependency] = {}  # by id of the interned set
        for first, last, j in vstays[: bisect_right(vstays, b, key=itemgetter(0))]:
            if last < a or j == agent:
                continue
            suitable = suitable_by_stay.get((j, first))
            if suitable is None:
                # j's candidates off x that start before its stay on x and end after it
                suitable = tuple(
                    s
                    for s in range(bisect_left(actions, (j,)), bisect_left(actions, (j, first)))
                    if actions[s][2] > last and vertices[s] != x
                )
                suitable = suitable_by_stay[j, first] = interned.setdefault(suitable, suitable)
            if not suitable:
                invalid.append(ci)
                break
            if id(suitable) not in found:
                found[id(suitable)] = Dependency(ci, j, max(a, first), suitable)
        else:
            dependencies.extend(found.values())

    dependencies.sort(key=lambda d: (d.action, d.blocker, d.timestep))
    return RelationSet(actions, vertices, tuple(dependencies), tuple(invalid))
