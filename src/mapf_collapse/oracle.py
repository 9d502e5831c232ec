"""Brute-force ground truth for small instances.

brute_force_collapse enumerates subsets of exhaustive-mode candidates
(per-agent interval-disjoint), applies each subset to the input
schedule, validates, and keeps the best saving. It never trusts the
optimizer's machinery: the saving is recomputed as a move-count
difference. Zero-weight candidates rewrite nothing, so they are skipped
during enumeration; the size cap applies to the remaining positive ones.

brute_force_mis enumerates vertex subsets for maximum independent set.
Both refuse inputs above their caps instead of melting down; a negative
cap is a usage error (ValueError), not a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .candidates import EXHAUSTIVE, CandidateSet, collapse_paths, generate_candidates
from .errors import CapExceededError, InfeasibleInputError
from .graph import Graph
from .schedule import Schedule, cost_moves, validate

DEFAULT_CANDIDATE_CAP = 20
DEFAULT_MIS_CAP = 20


@dataclass(frozen=True)
class OracleResult:
    best_saving: int
    best_selection: tuple[int, ...]
    enumerated: int

    def to_json_dict(self) -> dict:
        return {
            "best_saving": self.best_saving,
            "best_selection": list(self.best_selection),
            "enumerated": self.enumerated,
        }


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")


def brute_force_collapse(
    schedule: Schedule,
    graph: Graph,
    mode: str = "strict",
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> OracleResult:
    """Exhaustive search over collapse selections.

    Selection indices refer to the exhaustive candidate set in canonical
    order. Same-agent intervals must be disjoint: touching ones conflict,
    as in the model.
    """
    cands = generate_candidates(schedule, EXHAUSTIVE)
    return brute_force_over(schedule, graph, cands, mode, cap)


def brute_force_over(
    schedule: Schedule,
    graph: Graph,
    cands: CandidateSet,
    mode: str = "strict",
    cap: int = DEFAULT_CANDIDATE_CAP,
    allow_touching: bool = False,
) -> OracleResult:
    """Enumeration core, reusable over any candidate set. With
    allow_touching, same-agent intervals may share an endpoint (they then
    collapse to the same vertex by construction); the default requires
    strict disjointness."""
    _check_cap(cap)
    report = validate(schedule, graph, mode)
    if not report.feasible:
        raise InfeasibleInputError(report)
    positive = [i for i, w in enumerate(cands.weights) if w > 0]
    if len(positive) > cap:
        raise CapExceededError(
            f"{len(positive)} positive-saving candidates exceed the cap of {cap}"
        )
    base_cost = cost_moves(schedule)
    actions = cands.actions

    best_saving = -1
    best_selection: tuple[int, ...] = ()
    enumerated = 0
    chosen: list[int] = []

    def compatible(idx: int) -> bool:
        agent, a, b = actions[idx]
        for j in chosen:
            other, oa, ob = actions[j]
            # touching spans share one endpoint, so both collapse to the same vertex
            if other == agent and a <= ob and oa <= b and not (allow_touching and (a == ob or oa == b)):
                return False
        return True

    def evaluate() -> None:
        nonlocal best_saving, best_selection, enumerated
        applied = collapse_paths(schedule, cands, chosen)
        if not validate(applied, graph, mode).feasible:
            return
        enumerated += 1
        saving = base_cost - cost_moves(applied)
        if saving > best_saving:
            best_saving = saving
            best_selection = tuple(chosen)

    # depth-first over include/exclude per positive candidate, include
    # first, on an explicit stack so that deep searches need no recursion:
    # an entry pos >= 0 visits positive[pos:], and -1 drops the last chosen
    stack = [0]
    while stack:
        pos = stack.pop()
        if pos < 0:
            chosen.pop()
        elif pos == len(positive):
            evaluate()
        else:
            stack.append(pos + 1)
            idx = positive[pos]
            if compatible(idx):
                chosen.append(idx)
                stack += (-1, pos + 1)
    return OracleResult(best_saving, best_selection, enumerated)


def brute_force_mis(graph: Graph, cap: int = DEFAULT_MIS_CAP) -> int:
    """Maximum independent set size by subset enumeration."""
    _check_cap(cap)
    n = len(graph.vertices)
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the MIS cap of {cap}")
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    best = 0
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if adj[i] & mask:
                ok = False
                break
            m ^= low
        if ok:
            size = mask.bit_count()
            if size > best:
                best = size
    return best
