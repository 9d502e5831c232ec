"""0/1 model over collapse candidates and an exact anytime solver.

The model maximizes total saving subject to same-agent mutexes (two
collapses of one agent whose spans intersect, touching included) and
covering implications (a selected collapse needs, per blocking agent
and timestep, at least one suitable collapse selected on that agent).
Selecting nothing is always feasible. The mutexes are not listed: each
variable carries its candidate's (agent, a, b) span. Cross-agent
exclusions are not part of the model, as the implications and the
same-agent mutexes imply them (relations.py).

The model is plain data; solve_exact builds what it needs from it once
per call: each variable's owned member sets, and each free variable's
overlap chain, numbered by one sweep over the spans sorted by (agent, a,
b). It splits the free variables into independent components without
listing any pair: union-find joins each implication owner's chain with
its members' chains. Each component is solved against a relaxation that
drops the implications: what is left is one weighted interval
scheduling problem per agent (Kleinberg & Tardos, Algorithm Design,
6.1), solved exactly by dynamic programming, and the sum of those
optima bounds the component (the Lagrangian bound with all multipliers
at zero). A component without implications is one agent's overlap
chain, solved by the DP alone. A coupled one starts from the empty
selection and is searched depth first, in one loop over a stack of
decisions whose first entry is the root; the root alone proves it when
its bound is 0 or its relaxed optimum is feasible. Each node recomputes
the DP of the agents whose variables changed, is pruned when the bound
does not beat the incumbent, and is closed when the relaxed optimum
meets every implication. Otherwise it branches, 1 first, on the first
unmet implication: on its owner, and once the owner is 1, on its
heaviest undecided suitable member.
Same-agent exclusions propagate by bisecting the agent's spans sorted
by end. The search's first dive is also its anytime answer ("diving",
Achterberg, Constraint Integer Programming, 2007): a deadline stops a
component only once it has reached a feasible leaf. There is no
dominance presolve: no two reduced candidates of one agent have one
weight and nested spans, so none can stand in for another.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import ne, sub

from .candidates import CandidateSet, Span, collapse_paths
from .errors import ConsistencyError
from .graph import Graph
from .relations import RelationSet, intersecting_pairs
from .schedule import Schedule, move_steps, validate


@dataclass(frozen=True)
class IlpModel:
    """Binary variables with weights, implications and fixed zeros.

    spans[i] is variable i's (agent, a, b); free variables of one agent
    whose spans intersect are mutex without being listed. The solve
    reads only these fields; mutex lists the pairs on request. build_model
    shares the weights and spans with the candidate set's columns.
    """

    weights: tuple[int, ...]
    implications: tuple[tuple[int, tuple[int, ...]], ...]
    fixed_zero: frozenset[int]
    spans: tuple[Span, ...]

    @property
    def n_vars(self) -> int:
        return len(self.weights)

    def free(self) -> list[int]:
        """Variables not fixed to zero, ascending."""
        return [i for i in range(self.n_vars) if i not in self.fixed_zero]

    @cached_property
    def mutex(self) -> tuple[tuple[int, int], ...]:
        """Every mutex pair, the same-agent overlaps of free variables,
        listed and sorted on first access."""
        by_agent: dict[int, list[int]] = {}
        for i in self.free():
            by_agent.setdefault(self.spans[i][0], []).append(i)
        return tuple(intersecting_pairs(self.spans, by_agent.values()))


@dataclass(frozen=True)
class CollapseSolution:
    selected: frozenset[int]
    saving: int
    optimal: bool
    nodes_explored: int = 0
    solve_time: float = 0.0
    n_components: int = 0
    n_components_proved: int = 0
    upper_bound: int = 0  # no selection saves more; equals saving iff optimal
    n_mutex: int = 0  # len(model.mutex): same-agent overlaps, counted from the solve's per-agent spans


def build_model(relations: RelationSet, candidates: CandidateSet) -> IlpModel:
    """One binary variable per candidate, constraints from the relations.

    Invalid actions are fixed to zero and carry no constraints. Zero-
    weight candidates (possible in exhaustive mode) are fixed to zero as
    well: collapsing an already-constant segment changes no position, so
    it can neither save cost nor serve as a suitable action. Within-agent
    exclusions stay implicit in the candidates' spans, and cross-agent
    exclusions are left out: the implications imply them.
    """
    weights = candidates.weights
    fixed = set(relations.invalid)
    fixed.update(i for i, w in enumerate(weights) if w == 0)
    implications = tuple(
        (d.action, d.suitable)
        for d in relations.dependencies
        if d.action not in fixed
    )
    return IlpModel(weights, implications, frozenset(fixed), relations.spans)


def _owned(model: IlpModel) -> list[list[tuple[int, ...]]]:
    """Per variable, the member set of each implication that it owns.
    An implication owned by a variable fixed to zero is vacuous and is
    left out; no member set is walked here."""
    owned: list[list[tuple[int, ...]]] = [[] for _ in range(model.n_vars)]
    fixed = model.fixed_zero
    for owner, suitable in model.implications:
        if owner not in fixed:
            owned[owner].append(suitable)
    return owned


def _components(model: IlpModel, owned: list[list[tuple[int, ...]]]) -> list[tuple[list[int], bool]]:
    """Independent components of the free variables: (members, coupled).

    One sweep over the free spans sorted by (agent, a, b) numbers the
    overlap chains: a new chain starts with each agent and wherever a
    span starts after every earlier span of its agent has ended, so two
    variables overlap only within one chain. Union-find then joins the
    chain of every implication owner (owned, from _owned) with each
    distinct chain of its free members. A member whose chain is the
    previous member's is skipped: a suitable set's members all cover the
    blocker's stay, so they share one chain in practice, and one union
    per set replaces one per member.
    Components are sorted by (size, smallest variable), members
    ascending. A component is coupled when it holds an implication; any
    other component is a single overlap chain.
    """
    free = model.free()
    spans = model.spans
    chain_of = [-1] * model.n_vars  # -1: fixed to zero
    n_chains = 0
    agent = reach = None
    for i in sorted(free, key=spans.__getitem__):
        j, a, b = spans[i]
        if j != agent or a > reach:
            n_chains += 1
            agent, reach = j, b
        elif b > reach:
            reach = b
        chain_of[i] = n_chains - 1
    parent = list(range(n_chains))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    coupled: list[int] = []
    for owner, sets in enumerate(owned):
        if not sets:
            continue
        root = find(chain_of[owner])
        coupled.append(root)
        for suitable in sets:
            last = -1
            for s in suitable:
                chain = chain_of[s]
                if chain != last and chain >= 0:
                    parent[find(chain)] = root
                    last = chain

    members: dict[int, list[int]] = {}
    for v in free:
        members.setdefault(find(chain_of[v]), []).append(v)
    coupled_roots = {find(c) for c in coupled}
    order = sorted(members, key=lambda root: (len(members[root]), members[root][0]))
    return [(members[root], root in coupled_roots) for root in order]


UNDEC, ZERO, ONE = -1, 0, 1
FEASIBLE, PRUNED, REVISED = -1, -2, -3  # violation() results that name no variable


class _Agent:
    """One agent's variables in a component: its interval DP and the
    lookup of its overlapping spans."""

    def __init__(self, members: list[int], model: IlpModel):
        spans = model.spans
        self.spans = spans
        self.items = sorted(members, key=lambda i: (spans[i][2], spans[i][1], i))
        self.weights = [model.weights[i] for i in self.items]
        self.ends = [spans[i][2] for i in self.items]
        # before[p]: how many items end before items[p] starts
        self.before = [bisect_left(self.ends, spans[i][1]) for i in self.items]
        # each earlier item that does not end before items[p] starts overlaps it
        self.n_overlaps = sum(map(sub, range(len(self.before)), self.before))
        self.longest = max(spans[i][2] - spans[i][1] for i in members)

    def solve(self, val: list[int]) -> tuple[int, list[int]]:
        """Heaviest set of pairwise disjoint spans among the items not
        fixed to 0 (weighted interval scheduling, O(k)); it holds every
        item fixed to 1, whose overlaps are all fixed to 0 already.

        Touching spans conflict, so item q may follow item p only when
        b_p < a_q.
        """
        items, weights, before = self.items, self.weights, self.before
        best = [0]
        for p, i in enumerate(items):
            keep = best[p]
            if val[i] != ZERO:
                take = weights[p] + best[before[p]]
                if take > keep:
                    keep = take
            best.append(keep)
        chosen = []
        p = len(items)
        while p:
            i = items[p - 1]
            if val[i] == ONE or (val[i] == UNDEC and weights[p - 1] + best[before[p - 1]] > best[p - 1]):
                chosen.append(i)
                p = before[p - 1]
            else:
                p -= 1
        return best[-1], chosen

    def overlapping(self, v: int) -> list[int]:
        """The other items whose spans intersect v's: they end in
        [a_v, b_v + longest] and start by b_v."""
        spans = self.spans
        _, a, b = spans[v]
        window = self.items[bisect_left(self.ends, a) : bisect_right(self.ends, b + self.longest)]
        return [u for u in window if u != v and spans[u][1] <= b]


def _solve_component(
    model: IlpModel,
    owned: list[list[tuple[int, ...]]],
    comp: list[int],
    val: list[int],
    deadline: float,
) -> tuple[list[int], bool, int, int, int]:
    """Exact search on one component: (selected, proved, nodes, bound,
    same-agent overlapping pairs).

    The search is one loop over a stack of decisions (variable, value,
    trail mark, saved mark). The root is the first entry and decides
    nothing; a node that branches pushes its 0-decision and then its
    1-decision, so 1 is tried first. A popped decision undoes the
    assignments and DP results past its marks, then assigns. The empty
    selection is the first incumbent. The deadline, a time.monotonic()
    reading (math.inf for none), is read only once the search has
    reached a feasible leaf, so a component it cuts keeps at least its
    first dive's selection. bound is the proved optimum, or the root
    relaxation's value when the deadline cut the search. val holds every
    variable's state; it is shared between the disjoint components of
    one solve.

    Fixing a variable to 1 fixes its same-agent overlaps to 0; per
    implication it owns, a single member not fixed to 0 is fixed to 1,
    and none is a contradiction. Fixing to 0 propagates nothing: a
    member set may hold hundreds of variables, each listed in hundreds
    of sets. Implications are checked where the bound needs them, on
    the relaxed optimum: an undecided owner found there with no member
    left is fixed to 0 and the node relaxed again, and an owner at 1
    with none left ends the node.
    """
    weights, spans = model.weights, model.spans
    by_agent: dict[int, list[int]] = {}
    for v in comp:
        by_agent.setdefault(spans[v][0], []).append(v)
    agents = {agent: _Agent(members, model) for agent, members in by_agent.items()}
    overlaps = sum(agent.n_overlaps for agent in agents.values())

    # each agent's DP result, recomputed for the agents in dirty; saved
    # holds the results they replaced, trail the variables assigned
    cache: dict[int, tuple[int, list[int]]] = {agent: (0, []) for agent in agents}
    dirty = set(agents)
    saved: list[tuple[int, tuple[int, list[int]]]] = []
    trail: list[int] = []
    total = 0

    def violation(selection: list[int]) -> int:
        """The variable to branch on for the first unmet implication,
        FEASIBLE if there is none, PRUNED if the node has no solution, or
        REVISED after fixing an owner to 0."""
        chosen = set(selection)
        for v in selection:
            for suitable in owned[v]:
                if chosen.isdisjoint(suitable):
                    if val[v] == ONE:
                        undecided = [s for s in suitable if val[s] == UNDEC]
                        if not undecided:
                            return PRUNED
                        return max(undecided, key=lambda s: (weights[s], -s))
                    if all(val[s] == ZERO for s in suitable):
                        assign(v, ZERO)  # fixing to 0 cannot fail
                        return REVISED
                    return v
        return FEASIBLE

    def assign(var: int, x: int) -> bool:
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
            agent = spans[v][0]
            dirty.add(agent)
            if want == ONE:
                for u in agents[agent].overlapping(v):
                    if val[u] == ONE:
                        return False
                    if val[u] == UNDEC:
                        queue.append((u, ZERO))
                for suitable in owned[v]:
                    members = [s for s in suitable if val[s] != ZERO]
                    if not members:
                        return False
                    if len(members) == 1:
                        queue.append((members[0], ONE))
        return True

    def evaluate() -> tuple[int, list[int], int]:
        """(bound, relaxed optimum, violation result) of the current node."""
        nonlocal total
        while True:
            for agent in dirty:
                old = cache[agent]
                saved.append((agent, old))
                fresh = agents[agent].solve(val)
                total += fresh[0] - old[0]
                cache[agent] = fresh
            dirty.clear()
            if total <= best_saving:
                return total, [], PRUNED
            relaxed = [v for agent in agents for v in cache[agent][1]]
            branch = violation(relaxed)
            if branch != REVISED:
                return total, relaxed, branch

    best: list[int] = []
    best_saving = root_bound = nodes = 0
    completed = True
    stack = [(None, UNDEC, 0, 0)]  # the root: assigns nothing and keeps every agent dirty
    while stack:
        var, x, mark, saved_mark = stack.pop()
        while len(trail) > mark:
            val[trail.pop()] = UNDEC
        while len(saved) > saved_mark:
            agent, old = saved.pop()
            total += old[0] - cache[agent][0]
            cache[agent] = old
        if var is not None:
            dirty.clear()
            if not assign(var, x):
                continue
        nodes += 1
        # best is non-empty from the first feasible leaf on: its bound beat 0
        if best and time.monotonic() > deadline:
            completed = False
            break
        bound, relaxed, branch = evaluate()
        if nodes == 1:
            root_bound = bound
        if branch == FEASIBLE:
            best, best_saving = relaxed, bound
        elif branch != PRUNED:
            stack.append((branch, ZERO, len(trail), len(saved)))
            stack.append((branch, ONE, len(trail), len(saved)))
    proved = completed or best_saving == root_bound
    return best, proved, nodes, best_saving if proved else root_bound, overlaps


def solve_exact(model: IlpModel, time_limit: float) -> CollapseSolution:
    """Exact solve, component by component; anytime under a time limit.

    The components run in (size, smallest variable) order under one
    shared deadline. One-agent components are solved by the interval DP
    whatever the deadline. Every coupled component gets its root check,
    and, unless that proves it, a search that runs at least until its
    first feasible leaf; the deadline stops it only after that. optimal
    is True iff every component was proved; upper_bound adds up each
    component's proved optimum or root bound. n_mutex adds up the
    same-agent overlaps that each agent's interval DP counts from its
    spans. time_limit is in seconds (math.inf: none). Deterministic:
    fixed component and variable order, first-found tie-breaking.
    """
    t0 = time.monotonic()
    deadline = t0 + time_limit
    val = [UNDEC] * model.n_vars
    for i in model.fixed_zero:
        val[i] = ZERO
    owned = _owned(model)
    comps = _components(model, owned)

    selected: list[int] = []
    nodes = proved = upper_bound = n_mutex = 0
    for comp, coupled in comps:
        if coupled:
            chosen, done, explored, bound, overlaps = _solve_component(model, owned, comp, val, deadline)
        else:
            agent = _Agent(comp, model)
            bound, chosen = agent.solve(val)
            done, explored, overlaps = True, 0, agent.n_overlaps
        selected.extend(chosen)
        nodes += explored
        proved += done
        upper_bound += bound
        n_mutex += overlaps

    return CollapseSolution(
        frozenset(selected),
        sum(model.weights[v] for v in selected),
        optimal=proved == len(comps),
        nodes_explored=nodes,
        solve_time=time.monotonic() - t0,
        n_components=len(comps),
        n_components_proved=proved,
        upper_bound=upper_bound,
        n_mutex=n_mutex,
    )


def solve_greedy(model: IlpModel) -> CollapseSolution:
    """The anytime answer at a zero time limit: solve_exact(model, 0.0).

    Each coupled component keeps its first dive's selection unless the
    root check proves it.
    """
    return solve_exact(model, 0.0)


def apply_solution(
    schedule: Schedule,
    candidates: CandidateSet,
    solution: CollapseSolution,
    graph: Graph,
    mode: str,
    *,
    cost: int,
    validated: tuple[Schedule, Sequence[int]],
) -> tuple[Schedule, dict[int, list[int]]]:
    """Apply the selected collapses and check the result.

    validated is (input, counts): the schedule this one was derived from
    (the same schedule, or the prefilter's rewrite of it), which passed
    validate in mode, and each of its paths' move count. Returns the
    result and the move steps of each of its rows whose path differs
    from the input's, keyed by agent; every other row's moves are the
    input's. cost is schedule's move count, as the caller counted it. A
    failed check or a saving mismatch here means the relation builder or
    solver violated its contract, so it raises instead of returning a
    bad schedule.

    Only the result's cells that differ from the input are checked. For
    every row whose path differs from the input's:
    - its start, goal, first cell and last cell are the input's;
    - both cells of each of its moves are unchanged, so each changed
      cell equals both its neighbours.
    And every timestep holding a changed cell has no repeated vertex in
    its column. Each changed cell then repeats an unchanged neighbour's
    vertex, and every move of the result is an input move between the
    same two vertices at the same step. So no unknown vertex,
    disconnected step, swap, start, goal or duplicate violation can
    appear that the input lacked, and a vertex collision can only be at
    a checked timestep. The result's move count, the input's counts with
    the stepped rows' own in their place, must also be cost -
    solution.saving. If any test fails, the result goes through the full
    validate and the saving check, so every verdict and message is the
    one a full validation gives.
    """
    result = collapse_paths(schedule, candidates, solution.selected)
    base, counts = validated
    restepped = _restep_if_changes_kept_feasible(result, base)
    if restepped is not None:
        n_moves = sum(counts) + sum(len(steps) - counts[i] for i, steps in restepped.items())
        if n_moves == cost - solution.saving:
            return result, restepped
    report = validate(result, graph, mode)
    if not report.feasible:
        raise ConsistencyError(
            f"applied solution is infeasible, first violation: {report.violations[0]}"
        )
    removed = cost - sum(map(len, report.moves))
    if removed != solution.saving:
        raise ConsistencyError(
            f"saving accounting mismatch: schedule lost {removed} moves, solver claimed {solution.saving}"
        )
    rows = zip(result.agents, base.agents, report.moves)
    return result, {i: steps for i, (ag, before, steps) in enumerate(rows) if ag.path != before.path}


def _restep_if_changes_kept_feasible(result: Schedule, base: Schedule) -> dict[int, list[int]] | None:
    """The move steps of result's rows whose path differs from the
    validated base, keyed by agent, if the cells that differ pass
    apply_solution's checks, else None. The columns checked run from
    each changed row's first changed cell to its last, a superset of
    the changed ones."""
    if result.horizon != base.horizon or len(result.agents) != len(base.agents):
        return None
    T = base.horizon
    restepped: dict[int, list[int]] = {}
    windows: list[tuple[int, int]] = []  # each changed row's (first, last) changed step
    for i, (ag, before) in enumerate(zip(result.agents, base.agents)):
        if ag is before:
            continue
        if ag.start != before.start or ag.goal != before.goal:
            return None
        q, p = ag.path, before.path
        if q == p:
            continue
        lo = next(compress(count(), map(ne, p, q)))
        hi = next(compress(count(T, -1), map(ne, reversed(p), reversed(q))))
        if lo == 0 or hi == T:
            return None
        steps = move_steps(q)
        # both cells of each move are unchanged: no changed cell is next to a move
        ends = [*steps, *map((1).__add__, steps)]
        if list(map(q.__getitem__, ends)) != list(map(p.__getitem__, ends)):
            return None
        windows.append((lo, hi))
        restepped[i] = steps
    if not windows:
        return restepped
    checked = bytearray(T + 1)  # 1 at each timestep whose column is checked
    for lo, hi in windows:
        checked[lo : hi + 1] = b"\x01" * (hi + 1 - lo)
    n = len(result.agents)
    columns = compress(zip(*(ag.path for ag in result.agents)), checked)
    if not all(map(n.__eq__, map(len, map(set, columns)))):
        return None
    return restepped
