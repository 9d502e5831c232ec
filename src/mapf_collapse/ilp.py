"""0/1 model over collapse candidates and an exact anytime solver.

The model maximizes total saving subject to mutexes (at most one of two
conflicting collapses) and covering implications (a selected collapse
needs, per blocking agent and timestep, at least one suitable collapse
selected on that agent). Selecting nothing is always feasible.

Within-agent mutexes are not listed: each variable carries its
candidate's (agent, a, b) span, and two free variables of one agent
whose spans intersect (touching included) exclude each other. Only
cross-agent mutex pairs and implications are explicit.

solve_exact splits the free variables into independent components
without listing any pair: a sweep over each agent's sorted spans joins
overlap chains, and union-find joins the ends of every explicit pair
and every implication owner with its free members. A component of one
agent with no explicit pair or implication is weighted interval
scheduling, solved exactly by dynamic programming. Every other
component gets a depth-first branch-and-bound over its own variables
(its within-agent pairs listed by the overlap sweep): weight-descending
order, y=1 branch first, mutex and implication propagation, warm start
from the greedy's part of the component. Its admissible bound is the
sum of undecided weights, tightened per mutex clique (a greedy static
clique cover; each clique contributes at most its best undecided
weight).
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .candidates import CandidateSet, collapse_paths
from .errors import ConsistencyError
from .graph import Graph
from .relations import RelationSet, Span, chain_pairs, count_overlaps, overlap_chains, overlap_pairs
from .schedule import Schedule, cost_moves, validate


@dataclass(frozen=True, init=False)
class IlpModel:
    """Binary variables with weights, mutexes, implications and fixed zeros.

    spans[i] is variable i's (agent, a, b); free variables of one agent
    whose spans intersect are mutex without being listed, and
    explicit_mutex holds every other mutex pair. A model built by hand as
    IlpModel(weights, mutex, implications, fixed_zero) gives every
    variable an agent of its own, so all of its mutexes are explicit.
    """

    weights: tuple[int, ...]
    explicit_mutex: tuple[tuple[int, int], ...]
    implications: tuple[tuple[int, tuple[int, ...]], ...]
    fixed_zero: frozenset[int]
    spans: tuple[Span, ...]

    def __init__(self, weights, mutex, implications, fixed_zero, spans=None):
        if spans is None:
            spans = tuple((-1 - i, 0, 1) for i in range(len(weights)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "explicit_mutex", mutex)
        object.__setattr__(self, "implications", implications)
        object.__setattr__(self, "fixed_zero", fixed_zero)
        object.__setattr__(self, "spans", spans)

    @property
    def n_vars(self) -> int:
        return len(self.weights)

    def free(self) -> list[int]:
        """Variables not fixed to zero, ascending."""
        return [i for i in range(self.n_vars) if i not in self.fixed_zero]

    @cached_property
    def mutex(self) -> tuple[tuple[int, int], ...]:
        """Every mutex pair, listed on first access: the explicit pairs,
        merged and sorted with the same-agent overlaps of free variables
        when there are any."""
        within = overlap_pairs(self.spans, self.free())
        if not within:
            return self.explicit_mutex
        return tuple(sorted(within + list(self.explicit_mutex)))

    @cached_property
    def n_mutex(self) -> int:
        """len(self.mutex), counted without listing the pairs."""
        return count_overlaps(self.spans, self.free()) + len(self.explicit_mutex)


@dataclass(frozen=True)
class CollapseSolution:
    selected: frozenset[int]
    saving: int
    optimal: bool
    nodes_explored: int = 0
    build_time: float = 0.0
    solve_time: float = 0.0
    n_components: int = 0
    n_components_proved: int = 0


def build_model(relations: RelationSet, candidates: CandidateSet) -> IlpModel:
    """One binary variable per candidate, constraints from the relations.

    Invalid actions are fixed to zero and carry no constraints. Zero-
    weight candidates (possible in exhaustive mode) are fixed to zero as
    well: collapsing an already-constant segment changes no position, so
    it can neither save cost nor serve as a suitable action. Within-agent
    exclusions stay implicit in the candidates' spans.
    """
    weights = tuple(c.weight for c in candidates.actions)
    fixed = set(relations.invalid)
    fixed.update(i for i, w in enumerate(weights) if w == 0)
    cross = tuple(
        pair
        for pair in relations.exclusions_cross
        if pair[0] not in fixed and pair[1] not in fixed
    )
    implications = tuple(
        (d.action, d.suitable)
        for d in relations.dependencies
        if d.action not in fixed
    )
    return IlpModel(weights, cross, implications, frozenset(fixed), relations.spans)


UNDEC, ZERO, ONE = -1, 0, 1


class _Search:
    """Adjacency and state arrays over all variables and implications.

    solve_exact shares one instance between the searches of all coupled
    components; they are disjoint, so each search reads and writes only
    its own entries.
    """

    def __init__(self, model: IlpModel):
        n = model.n_vars
        self.weights = model.weights
        # explicit partners; a component's within-agent pairs join its
        # entries when that component is searched
        self.mutex_adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in model.explicit_mutex:
            self.mutex_adj[a].append(b)
            self.mutex_adj[b].append(a)
        self.imp_owner: list[int] = []
        self.imp_members: list[tuple[int, ...]] = []
        self.imps_of_owner: list[list[int]] = [[] for _ in range(n)]
        self.member_imps: list[list[int]] = [[] for _ in range(n)]
        for owner, suitable in model.implications:
            imp_id = len(self.imp_owner)
            self.imp_owner.append(owner)
            self.imp_members.append(suitable)
            self.imps_of_owner[owner].append(imp_id)
            for s in suitable:
                self.member_imps[s].append(imp_id)
        self.val = [UNDEC] * n
        for i in model.fixed_zero:
            self.val[i] = ZERO
        # live[imp] = number of members that could still be 1 (undecided or 1)
        self.live = [
            sum(1 for s in suitable if s not in model.fixed_zero) for suitable in self.imp_members
        ]


def solve_greedy(model: IlpModel) -> CollapseSolution:
    """Weight-descending greedy with implication closure.

    Each action is tentatively added together with the actions needed to
    satisfy its implications (picking the heaviest compatible suitable
    action, recursively); the whole group is rolled back when a mutex or
    an unsatisfiable implication is hit. A same-agent overlap with the
    selection is found by bisecting that agent's selected spans.
    """
    t0 = time.monotonic()
    weights, spans, fixed = model.weights, model.spans, model.fixed_zero
    order = sorted(model.free(), key=lambda i: (-weights[i], i))
    links = _Search(model)
    partners, imp_members, imps_of_owner = links.mutex_adj, links.imp_members, links.imps_of_owner

    selected: set[int] = set()
    # agent -> (starts, ends) of its selected spans; they are disjoint,
    # so both lists are sorted
    taken: dict[int, tuple[list[int], list[int]]] = {}

    def clashes(v: int, group) -> bool:
        """v is mutex with a selected variable or another group member."""
        agent, a, b = spans[v]
        row = taken.get(agent)
        if row is not None:
            k = bisect_right(row[0], b)
            if k and row[1][k - 1] >= a:
                return True
        for u in group:
            if u != v:
                agent_u, a_u, b_u = spans[u]
                if agent_u == agent and a_u <= b and a <= b_u:
                    return True
        for u in partners[v]:
            if u != v and (u in selected or u in group):
                return True
        return False

    def close(seed: int) -> set[int] | None:
        group = {seed}
        queue = [seed]
        while queue:
            cur = queue.pop(0)
            if clashes(cur, group):
                return None
            for imp_id in imps_of_owner[cur]:
                suitable = imp_members[imp_id]
                if any(s in selected or s in group for s in suitable):
                    continue
                pick = None
                for s in sorted(suitable, key=lambda i: (-weights[i], i)):
                    if s not in fixed and not clashes(s, group):
                        pick = s
                        break
                if pick is None:
                    return None
                group.add(pick)
                queue.append(pick)
        return group

    for i in order:
        if i in selected or clashes(i, ()):
            continue
        group = close(i)
        if group is None:
            continue
        selected |= group
        for v in group:
            agent, a, b = spans[v]
            starts, ends = taken.setdefault(agent, ([], []))
            k = bisect_right(starts, a)
            starts.insert(k, a)
            ends.insert(k, b)

    saving = sum(weights[i] for i in selected)
    upper = sum(weights[i] for i in order)
    return CollapseSolution(
        frozenset(selected),
        saving,
        optimal=saving == upper,
        nodes_explored=0,
        solve_time=time.monotonic() - t0,
    )


def _components(model: IlpModel) -> list[tuple[list[int], list[list[int]], bool]]:
    """Independent components of the free variables: (members, chains, coupled).

    Overlap chains come from one sweep over the sorted spans; union-find
    then joins the chains of every explicit pair and of every
    implication owner with its free members. Components are sorted by
    (size, smallest variable), members ascending. A component is coupled
    when it holds an explicit pair or an implication; any other
    component is a single overlap chain.
    """
    fixed = model.fixed_zero
    free = model.free()
    chains = overlap_chains(model.spans, free)
    chain_of = [0] * model.n_vars
    for c, chain in enumerate(chains):
        for i in chain:
            chain_of[i] = c
    parent = list(range(len(chains)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    coupled: list[int] = []
    for a, b in model.explicit_mutex:
        if a not in fixed and b not in fixed:
            parent[find(chain_of[a])] = find(chain_of[b])
            coupled.append(chain_of[a])
    for owner, suitable in model.implications:
        if owner in fixed:
            continue
        root = find(chain_of[owner])
        coupled.append(root)
        for s in suitable:
            if s not in fixed:
                parent[find(chain_of[s])] = root

    members: dict[int, list[int]] = {}
    for v in free:
        members.setdefault(find(chain_of[v]), []).append(v)
    chains_of: dict[int, list[list[int]]] = {}
    for c, chain in enumerate(chains):
        chains_of.setdefault(find(c), []).append(chain)
    coupled_roots = {find(c) for c in coupled}
    order = sorted(members, key=lambda root: (len(members[root]), members[root][0]))
    return [(members[root], chains_of[root], root in coupled_roots) for root in order]


def _interval_dp(model: IlpModel, comp: list[int]) -> list[int]:
    """Heaviest set of pairwise disjoint spans (weighted interval scheduling).

    Touching spans conflict, so span j may follow span i only when
    b_i < a_j. O(k log k) in the component size k.
    """
    weights, spans = model.weights, model.spans
    items = sorted(comp, key=lambda i: (spans[i][2], spans[i][1], i))
    ends = [spans[i][2] for i in items]
    before = [bisect_left(ends, spans[i][1]) for i in items]
    best = [0]
    for k, i in enumerate(items):
        best.append(max(best[k], weights[i] + best[before[k]]))
    chosen = []
    k = len(items)
    while k:
        i = items[k - 1]
        if weights[i] + best[before[k - 1]] > best[k - 1]:
            chosen.append(i)
            k = before[k - 1]
        else:
            k -= 1
    return chosen


class _TimeUp(Exception):
    pass


def _presolve_dominated(search: _Search, free: list[int]) -> set[int]:
    """Fix variables that a mutex partner renders pointless.

    i can be fixed to zero when some free partner j has w_j >= w_i,
    conflicts with nothing i does not conflict with, owns no implication
    i does not own, and can serve as a suitable action anywhere i can:
    swapping i for j in any feasible selection stays feasible and never
    loses saving. Run-endpoint candidates over a long constant run
    produce exactly such interchangeable variables; without this step
    the search re-proves the same subtree once per duplicate.
    """
    weights = search.weights
    free_set = set(free)
    madj: dict[int, set[int]] = {v: set() for v in free}
    owner_sets: dict[int, set[frozenset[int]]] = {v: set() for v in free}
    member_sets = {v: set(search.member_imps[v]) for v in free}
    for v in free:
        for u in search.mutex_adj[v]:
            if u in free_set:
                madj[v].add(u)
        for imp_id in search.imps_of_owner[v]:
            owner_sets[v].add(frozenset(search.imp_members[imp_id]))

    fixed: set[int] = set()

    def dominates(j: int, i: int) -> bool:
        if weights[j] < weights[i]:
            return False
        if len(madj[j]) - (i in madj[j]) > len(madj[i]):
            return False
        if len(owner_sets[j]) > len(owner_sets[i]) or len(member_sets[i]) > len(member_sets[j]):
            return False
        if not (madj[j] - {i}) <= madj[i]:
            return False
        if not owner_sets[j] <= owner_sets[i]:
            return False
        return member_sets[i] <= member_sets[j]

    pairs = sorted((a, b) for a, partners in madj.items() for b in partners if a < b)
    for a, b in pairs:
        if a in fixed or b in fixed:
            continue
        if dominates(a, b):
            fixed.add(b)
        elif dominates(b, a):
            fixed.add(a)
    return fixed


def _clique_cover(free: list[int], mutex_adj: list[list[int]]) -> tuple[list[list[int]], dict[int, int]]:
    """Greedy partition of free variables into mutex cliques.

    Each clique admits at most one selected action, so during search it
    contributes at most its best undecided weight to the bound. A
    variable joins the lowest-index clique all of whose members are
    mutex partners, found by counting partner occurrences per clique
    (linear in the mutex degree instead of quadratic in clique count).
    """
    free_set = set(free)
    cliques: list[list[int]] = []
    clique_of: dict[int, int] = {}
    for v in free:
        counts: dict[int, int] = {}
        for u in mutex_adj[v]:
            if u in free_set and u in clique_of:
                ci = clique_of[u]
                counts[ci] = counts.get(ci, 0) + 1
        chosen = -1
        for ci in sorted(counts):
            if counts[ci] == len(cliques[ci]):
                chosen = ci
                break
        if chosen < 0:
            chosen = len(cliques)
            cliques.append([])
        cliques[chosen].append(v)
        clique_of[v] = chosen
    return cliques, clique_of


def _branch_and_bound(
    model: IlpModel,
    search: _Search,
    comp: list[int],
    chains: list[list[int]],
    warm: list[int],
    deadline: float | None,
) -> tuple[list[int], bool, int]:
    """Exact search on one coupled component: (selected, completed, nodes).

    The component's within-agent pairs are listed here, chain by chain,
    and nowhere else on the solve path.
    """
    weights, mutex_adj, val, live = search.weights, search.mutex_adj, search.val, search.live
    imp_owner, imps_of_owner, member_imps = search.imp_owner, search.imps_of_owner, search.member_imps
    for chain in chains:
        for i, j in chain_pairs(model.spans, chain):
            mutex_adj[i].append(j)
            mutex_adj[j].append(i)
    free = sorted(comp, key=lambda i: (-weights[i], i))
    dominated = _presolve_dominated(search, free)
    free = [v for v in free if v not in dominated]
    for v in dominated:
        val[v] = ZERO
        for imp_id in member_imps[v]:
            live[imp_id] -= 1

    raw_cliques, clique_of = _clique_cover(free, mutex_adj)
    cliques = [sorted(c, key=lambda i: (-weights[i], i)) for c in raw_cliques]

    trail: list[int] = []
    one_weight = 0
    undec_weight = sum(weights[v] for v in free)
    nodes = 0
    best_selected = warm
    best_saving = sum(weights[v] for v in warm)

    # clique_contrib[ci] caches each clique's bound contribution (its best
    # undecided weight, or 0 once a member is selected); cliques whose
    # members changed since the last bound() call sit in dirty_cliques.
    def clique_value(ci: int) -> int:
        best_undec = 0
        for v in cliques[ci]:
            if val[v] == ONE:
                return 0
            if val[v] == UNDEC and best_undec == 0:
                best_undec = weights[v]
        return best_undec

    clique_contrib = [clique_value(ci) for ci in range(len(cliques))]
    clique_sum = sum(clique_contrib)
    dirty_cliques: set[int] = set()

    def assign(var: int, x: int) -> bool:
        nonlocal one_weight, undec_weight
        queue = [(var, x)]
        while queue:
            v, want = queue.pop()
            cur = val[v]
            if cur != UNDEC:
                if cur != want:
                    return False
                continue
            val[v] = want
            trail.append(v)
            undec_weight -= weights[v]
            dirty_cliques.add(clique_of[v])
            if want == ONE:
                one_weight += weights[v]
                for u in mutex_adj[v]:
                    if val[u] == ONE:
                        return False
                    if val[u] == UNDEC:
                        queue.append((u, ZERO))
                for imp_id in imps_of_owner[v]:
                    if live[imp_id] == 0:
                        return False
            else:
                for imp_id in member_imps[v]:
                    live[imp_id] -= 1
                conflict = False
                for imp_id in member_imps[v]:
                    if live[imp_id] == 0:
                        owner = imp_owner[imp_id]
                        if val[owner] == ONE:
                            conflict = True
                        elif val[owner] == UNDEC:
                            queue.append((owner, ZERO))
                if conflict:
                    return False
        return True

    def undo(mark: int) -> None:
        nonlocal one_weight, undec_weight
        while len(trail) > mark:
            v = trail.pop()
            if val[v] == ONE:
                one_weight -= weights[v]
            else:
                for imp_id in member_imps[v]:
                    live[imp_id] += 1
            val[v] = UNDEC
            undec_weight += weights[v]
            dirty_cliques.add(clique_of[v])

    def bound() -> int:
        nonlocal clique_sum
        if dirty_cliques:
            delta = 0
            for ci in dirty_cliques:
                fresh = clique_value(ci)
                delta += fresh - clique_contrib[ci]
                clique_contrib[ci] = fresh
            clique_sum += delta
            dirty_cliques.clear()
        return one_weight + clique_sum

    def dfs(ptr: int) -> None:
        nonlocal best_saving, best_selected, nodes
        nodes += 1
        if deadline is not None and nodes % 128 == 0 and time.monotonic() > deadline:
            raise _TimeUp
        # additive bound is free and dominates the clique bound
        if one_weight + undec_weight > best_saving:
            if bound() <= best_saving:
                return
        else:
            return
        while ptr < len(free) and val[free[ptr]] != UNDEC:
            ptr += 1
        if ptr == len(free):
            saving = one_weight
            if saving > best_saving:
                best_saving = saving
                best_selected = [v for v in free if val[v] == ONE]
            return
        v = free[ptr]
        mark = len(trail)
        if assign(v, ONE):
            dfs(ptr + 1)
        undo(mark)
        if assign(v, ZERO):
            dfs(ptr + 1)
        undo(mark)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * len(free) + 1000))
    completed = True
    try:
        dfs(0)
    except _TimeUp:
        completed = False
    finally:
        sys.setrecursionlimit(old_limit)
    return best_selected, completed, nodes


def solve_exact(model: IlpModel, time_limit: float | None = 5.0) -> CollapseSolution:
    """Exact solve, component by component; anytime under a time limit.

    One greedy pass gives every coupled component its warm start. The
    components run in (size, smallest variable) order under one shared
    deadline; once it has passed, each remaining coupled component keeps
    its greedy part, while one-agent components are still solved by the
    interval DP. optimal is True iff every component was proved.
    Deterministic: fixed component and variable order, first-found
    tie-breaking.
    """
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    greedy = solve_greedy(model)
    weights = model.weights
    comps = _components(model)
    search = _Search(model)

    selected: list[int] = []
    nodes = 0
    proved = 0
    for comp, chains, coupled in comps:
        if not coupled:
            selected.extend(_interval_dp(model, comp))
            proved += 1
            continue
        warm = [v for v in comp if v in greedy.selected]
        if deadline is not None and time.monotonic() > deadline:
            chosen = warm
            completed = sum(weights[v] for v in warm) == sum(weights[v] for v in comp)
        else:
            chosen, completed, explored = _branch_and_bound(
                model, search, comp, chains, warm, deadline
            )
            nodes += explored
        selected.extend(chosen)
        proved += completed

    return CollapseSolution(
        frozenset(selected),
        sum(weights[v] for v in selected),
        optimal=proved == len(comps),
        nodes_explored=nodes,
        solve_time=time.monotonic() - t0,
        n_components=len(comps),
        n_components_proved=proved,
    )


def apply_solution(
    schedule: Schedule,
    candidates: CandidateSet,
    solution: CollapseSolution,
    graph: Graph,
    mode: str = "strict",
) -> Schedule:
    """Apply the selected collapses and re-validate the result.

    A validation failure or a saving mismatch here means the relation
    builder or solver violated its contract, so it raises instead of
    returning a bad schedule.
    """
    chosen = [candidates.actions[i] for i in sorted(solution.selected)]
    result = collapse_paths(schedule, chosen)
    report = validate(result, graph, mode)
    if not report.feasible:
        raise ConsistencyError(
            f"applied solution is infeasible, first violation: {report.violations[0]}"
        )
    removed = cost_moves(schedule) - cost_moves(result)
    if removed != solution.saving:
        raise ConsistencyError(
            f"saving accounting mismatch: schedule lost {removed} moves, solver claimed {solution.saving}"
        )
    return result
