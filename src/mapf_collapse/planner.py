"""Schedule generators: a prioritized planner and a noisy rollout.

prioritized_plan produces clean strict-mode schedules via space-time
search against a reservation table. noisy_rollout emulates the jittery,
oscillation-heavy schedules that next-action policies tend to produce:
each agent greedily follows a shortest route but takes a uniformly
random step with probability p, stepping in turn against one set of
the cells taken at that timestep. Rollouts are bit-reproducible for a
fixed seed (Mersenne Twister via random.Random, fixed agent and
timestep ordering).

Both find goal distances on demand: a LazyDistances per goal labels the
map breadth-first only as far out as the visited vertices, and each
call sorts a visited vertex's options once.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .errors import PlanningError
from .graph import Graph, LazyDistances
from .schedule import AgentRecord, Schedule

RNG_NAME = "mt19937"


class _Options(dict):
    """Vertex -> [vertex] + its sorted neighbours: the wait first, then
    the moves. One per generator call, each entry built on first use."""

    def __init__(self, graph: Graph):
        super().__init__()
        self.graph = graph

    def __missing__(self, v: str) -> list[str]:
        options = self[v] = [v] + self.graph.neighbors(v)
        return options


@dataclass(frozen=True)
class PlanRequest:
    graph: Graph
    starts: tuple[str, ...]
    goals: tuple[str, ...]
    horizon: int
    seed: int = 0
    noise: float = 0.0

    def __post_init__(self):
        if len(self.starts) != len(self.goals):
            raise ValueError("starts and goals must have equal length")
        if not self.starts:
            raise ValueError("at least one agent is required")
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("starts must be pairwise distinct")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("goals must be pairwise distinct")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for v in list(self.starts) + list(self.goals):
            self.graph.require(v)


def prioritized_plan(request: PlanRequest) -> Schedule:
    """Plan agents one by one with a space-time reservation table.

    Earlier agents' paths are reserved: their (vertex, timestep) cells,
    their edge transitions, and their goal forever after arrival. Two
    dicts keyed by vertex make each test one lookup: parked_from maps an
    earlier agent's goal to its arrival, and last_reserved maps a vertex
    to the last timestep any earlier path holds it, so an agent may stop
    on its goal once the search is past that timestep. Agents are named
    a0, a1, ... Raises PlanningError when an agent has no conflict-free
    route within the horizon cap.
    """
    g = request.graph
    reserved_vertex: set[tuple[str, int]] = set()
    reserved_edge: set[tuple[int, str, str]] = set()
    parked_from: dict[str, int] = {}
    last_reserved: dict[str, int] = {}
    paths: list[list[str]] = []
    options_of = _Options(g)

    for i, (start, goal) in enumerate(zip(request.starts, request.goals)):
        lazy = LazyDistances(g, goal)
        dist = lazy.dist
        if lazy.label_until(start) is None:
            raise PlanningError(f"a{i}", f"goal {goal!r} unreachable from start {start!r}")
        # goals are distinct, so no earlier agent parks on this one
        goal_reserved_until = last_reserved.get(goal, -1)

        # space-time search; unit costs mean g == t, so (v, t) is closed on
        # first generation. Ties prefer smaller h (push toward the goal).
        # Every state lies in the goal's component, so label_until finds it.
        parent: dict[tuple[str, int], tuple[str, int] | None] = {(start, 0): None}
        heap: list[tuple[int, int, str, int]] = [(dist[start], dist[start], start, 0)]
        found = None
        while heap:
            f, h, v, t = heapq.heappop(heap)
            if v == goal and t > goal_reserved_until:
                found = (v, t)
                break
            if t >= request.horizon:
                continue
            nt = t + 1
            for w in options_of[v]:
                state = (w, nt)
                if state in parent or state in reserved_vertex or (t, w, v) in reserved_edge:
                    continue
                if w in parked_from and nt >= parked_from[w]:
                    continue
                parent[state] = (v, t)
                h = dist.get(w)
                if h is None:
                    h = lazy.label_until(w)
                heapq.heappush(heap, (nt + h, h, w, nt))
        if found is None:
            raise PlanningError(f"a{i}", "no conflict-free path within the horizon cap")

        path = []
        cur: tuple[str, int] | None = found
        while cur is not None:
            path.append(cur[0])
            cur = parent[cur]
        path.reverse()
        for t, v in enumerate(path):
            reserved_vertex.add((v, t))
            last_reserved[v] = max(last_reserved.get(v, t), t)
            if t > 0:
                reserved_edge.add((t - 1, path[t - 1], v))
        parked_from[goal] = len(path) - 1
        paths.append(path)

    horizon = max(len(p) - 1 for p in paths)
    agents = []
    for i, path in enumerate(paths):
        padded = path + [request.goals[i]] * (horizon - (len(path) - 1))
        agents.append(AgentRecord(f"a{i}", request.starts[i], request.goals[i], tuple(padded)))
    return Schedule(tuple(agents), horizon)


def noisy_rollout(request: PlanRequest) -> Schedule:
    """Step agents toward their goals with probability 1-p of greediness.

    Per timestep, agents move in index order against one set of taken
    cells: it starts as every agent's current cell, and at its turn an
    agent drops its own cell, picks among the options not taken, and
    takes its choice. So no two agents claim the same next vertex and
    nobody enters the cell of an agent that has not moved yet. Swaps
    cannot arise: an agent enters another's cell only after that agent
    has chosen, and that agent could not choose the first one's cell,
    which was still taken. Waiting is always free, so a blocked greedy
    step waits and the result always validates in relaxed mode. Stops
    early once every agent rests on its goal.
    """
    g = request.graph
    rng = random.Random(request.seed)
    goals = list(request.goals)
    lazies = [LazyDistances(g, goal) for goal in goals]
    options_of = _Options(g)
    far = len(g.vertices)  # beyond every hop distance
    paths: list[list[str]] = [[s] for s in request.starts]
    current = list(request.starts)

    for _ in range(request.horizon):
        taken = set(current)
        for i, here in enumerate(current):
            taken.discard(here)
            options = options_of[here]
            if rng.random() < request.noise:
                pool = [w for w in options if w not in taken]
                choice = pool[rng.randrange(len(pool))]
            else:
                lazy = lazies[i]
                d = lazy.dist
                if here not in d and lazy.label_until(here) is None:
                    choice = here  # goal unreachable, hold position
                else:
                    # here is labelled, so is a neighbour one hop nearer
                    # the goal; an unlabelled option is no nearer than here
                    choice = min(options, key=lambda w: (d.get(w, far), w))
                    if choice in taken:
                        choice = here
            taken.add(choice)
            current[i] = choice
            paths[i].append(choice)
        if current == goals:
            break

    horizon = len(paths[0]) - 1
    agents = tuple(
        AgentRecord(f"a{i}", request.starts[i], goals[i], tuple(path))
        for i, path in enumerate(paths)
    )
    return Schedule(agents, horizon)
