"""Schedule model, feasibility validation, and cost/quality metrics.

A schedule is an N x (T+1) matrix of vertex ids: one row per agent,
one column per timestep. The validator reports every violation instead
of stopping at the first, so a report doubles as a diagnosis. All
functions here are pure; schedules are immutable values.

validate and cost_moves scan the cells only at C level (comparing
consecutive positions, building sets). Beyond that, their work is per
move (a step at which an agent changes vertex) plus one set per
timestep; validate walks a timestep agent by agent only where it holds
a collision. validate's report carries every path's move steps, so a
caller can read the move count, the settle times (soc_from_moves) and
the constant runs (path_runs) of a validated schedule without scanning
its cells again.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import contains, ne

from .errors import InstanceFormatError, UnsupportedScheduleError
from .graph import Graph, GridMap, derive_grid, grid_to_graph, load_map, parse_cell

STRICT = "strict"
RELAXED = "relaxed"
MODES = (STRICT, RELAXED)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class AgentRecord:
    name: str
    start: str
    goal: str
    path: tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    agents: tuple[AgentRecord, ...]
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        for ag in self.agents:
            if len(ag.path) != self.horizon + 1:
                raise ValueError(
                    f"agent {ag.name!r} path has {len(ag.path)} positions, expected {self.horizon + 1}"
                )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def with_paths(self, paths: dict[int, Sequence[str]]) -> "Schedule":
        """Copy with paths[i] as agent i's path (same names, starts,
        goals); every agent not in paths keeps its AgentRecord."""
        agents = list(self.agents)
        for i, p in paths.items():
            ag = agents[i]
            agents[i] = AgentRecord(ag.name, ag.start, ag.goal, tuple(p))
        return Schedule(tuple(agents), self.horizon)


@dataclass(frozen=True)
class Violation:
    kind: str
    agents: tuple[int, ...]
    timestep: int

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "agents": list(self.agents), "timestep": self.timestep}


@dataclass(frozen=True)
class FeasibilityReport:
    """Violations found by validate. moves[i] lists agent i's move steps
    (move_steps of its path); it is neither compared nor written out."""

    feasible: bool
    violations: tuple[Violation, ...]
    moves: tuple[list[int], ...] = field(default=(), compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def validate(schedule: Schedule, graph: Graph, mode: str = STRICT) -> FeasibilityReport:
    """Check a schedule against the graph and the collision rules.

    Strict mode checks everything; relaxed mode skips the goal-stop and
    duplicate-goal checks so partially solved schedules can be handled.
    Unknown vertices raise; they are an input error, not a violation.

    Cost: one set-containment test per path for unknown vertices (the
    per-vertex check runs only on a path that fails it, to raise for the
    same first vertex); the moves, found at C level, for disconnected
    steps and swaps; one set per timestep column for vertex collisions.
    A timestep is walked agent by agent only where it holds a vertex or
    an edge collision, to name the agent pairs in the order a walk over
    every cell would.
    """
    _check_mode(mode)
    T = schedule.horizon
    adj = graph.adjacency
    for ag in schedule.agents:
        if not (ag.start in adj and ag.goal in adj and adj.keys() >= set(ag.path)):
            for v in (ag.start, ag.goal, *ag.path):
                graph.require(v)

    violations: list[Violation] = []
    moves: list[list[int]] = []
    arcs: set[tuple[int, str, str]] = set()  # (t, u, v): an earlier agent moves u -> v at t
    swap_steps: set[int] = set()
    for i, ag in enumerate(schedule.agents):
        p = ag.path
        if p[0] != ag.start:
            violations.append(Violation("start-mismatch", (i,), 0))
        if mode == STRICT and p[T] != ag.goal:
            violations.append(Violation("goal-stop", (i,), T))
        steps = move_steps(p)
        moves.append(steps)
        q = p[1:]
        sources = list(map(p.__getitem__, steps))
        targets = list(map(q.__getitem__, steps))
        if not all(map(contains, map(adj.__getitem__, sources), targets)):
            violations.extend(
                Violation("disconnected-step", (i,), t)
                for t, u, v in zip(steps, sources, targets)
                if v not in adj[u]
            )
        if not arcs.isdisjoint(zip(steps, targets, sources)):
            swap_steps.update(key[0] for key in zip(steps, targets, sources) if key in arcs)
        arcs.update(zip(steps, sources, targets))

    n = len(schedule.agents)
    columns = zip(*(ag.path for ag in schedule.agents))
    for t in compress(count(), map(n.__ne__, map(len, map(set, columns)))):
        occupant: dict[str, int] = {}
        for i, ag in enumerate(schedule.agents):
            v = ag.path[t]
            if v in occupant:
                violations.append(Violation("vertex-collision", (occupant[v], i), t))
            else:
                occupant[v] = i

    for t in swap_steps:
        movers: dict[tuple[str, str], int] = {}
        for i, ag in enumerate(schedule.agents):
            u, v = ag.path[t], ag.path[t + 1]
            if u == v:
                continue
            if (v, u) in movers:
                violations.append(Violation("edge-collision", (movers[(v, u)], i), t))
            movers[(u, v)] = i

    seen_starts: dict[str, int] = {}
    seen_goals: dict[str, int] = {}
    for i, ag in enumerate(schedule.agents):
        if ag.start in seen_starts:
            violations.append(Violation("duplicate-start", (seen_starts[ag.start], i), 0))
        else:
            seen_starts[ag.start] = i
        if mode == STRICT:
            if ag.goal in seen_goals:
                violations.append(Violation("duplicate-goal", (seen_goals[ag.goal], i), T))
            else:
                seen_goals[ag.goal] = i

    violations.sort(key=lambda v: (v.timestep, v.kind, v.agents))
    return FeasibilityReport(not violations, tuple(violations), tuple(moves))


def move_steps(path: tuple[str, ...]) -> list[int]:
    """Steps t with path[t] != path[t + 1], ascending, found at C level."""
    return list(compress(count(), map(ne, path, path[1:])))


Run = tuple[str, int, int]  # (vertex, first, last) of a maximal constant run


def path_runs(path: tuple[str, ...], steps: list[int]) -> list[Run]:
    """Maximal constant runs as (vertex, first, last), from the path's
    move steps: a run ends at each move and at the horizon."""
    firsts = [0, *[s + 1 for s in steps]]
    return list(zip(map(path.__getitem__, firsts), firsts, [*steps, len(path) - 1]))


def soc_from_moves(schedule: Schedule, moves: Sequence[list[int]]) -> int:
    """soc(schedule) from each path's move steps: an agent that ends at
    its goal settled one step after its last move (at 0 if it never
    moves); any other agent counts T. Only each list's last step is
    read, so lists cut to it (steps[-1:]) give the same sum."""
    T = schedule.horizon
    return sum(
        (steps[-1] + 1 if steps else 0) if ag.path[T] == ag.goal else T
        for ag, steps in zip(schedule.agents, moves)
    )


def cost_moves(schedule: Schedule) -> int:
    """Number of (agent, timestep) pairs that traverse an edge."""
    return sum(sum(map(ne, ag.path, ag.path[1:])) for ag in schedule.agents)


def soc(schedule: Schedule) -> int:
    """Sum over agents of their settle times (flowtime)."""
    return soc_from_moves(schedule, [move_steps(ag.path) for ag in schedule.agents])


def isr(schedule: Schedule) -> float:
    """Fraction of agents that end resting at their goal."""
    if not schedule.agents:
        return 1.0
    T = schedule.horizon
    done = sum(1 for ag in schedule.agents if ag.path[T] == ag.goal)
    return done / len(schedule.agents)


def agent_density(schedule: Schedule, grid: GridMap, fov: int = 11) -> float:
    """Time-averaged fraction of free field-of-view cells that hold agents.

    For every (agent, timestep) pair, count the agents inside the
    fov x fov window centered on the agent (the agent itself included,
    agents sharing a cell counted once each, window clipped at the map
    borders) and divide by the number of free cells inside the clipped
    window. Returns the mean over all pairs. A path vertex that is not a
    free cell of the grid raises UnsupportedScheduleError.

    Each timestep's agents form one occupancy bit set over the map, so
    a count is one AND with a column band and one popcount; agents on
    the same row share the cut-out of their row band. Each visited
    cell's free-cell count is one popcount, computed once. The extra
    memory is one band mask per visited map row and per visited map
    column, built on first use; each spans up to W * min(H, fov) bits.
    One agent visiting 5 cells of a 1 x 20,000 map peaks at 0.014 MB
    under tracemalloc. The quotients are added one by one in (timestep,
    agent) order, so the value is the same float as a pairwise count
    gives.
    """
    if fov < 1 or fov % 2 == 0:
        raise ValueError(f"fov must be odd and positive, got {fov}")
    if not schedule.agents:
        return 0.0
    half = fov // 2
    H, W = grid.height, grid.width
    # Bit W*r + c of a map bit set stands for cell (r, c). The rows of the
    # window around row r are cut out by shifting the set down by
    # shift[r] and masking with row_band[r]; col_band[c] then keeps the
    # window's columns around column c. Only visited rows and columns
    # get an entry.
    shift: dict[int, int] = {}
    row_band: dict[int, int] = {}
    col_band: dict[int, int] = {}
    every_row = sum(1 << W * r for r in range(min(H, fov)))
    free_in_row = [(1 << W) - 1] * H
    for r, c in grid.blocked:
        free_in_row[r] ^= 1 << c
    free = sum(bits << W * r for r, bits in enumerate(free_in_row))

    # Per visited vertex: the index of its bit, and its row, its column
    # and the number of free cells in its window.
    index: dict[str, int] = {}
    window: dict[str, tuple[int, int, int]] = {}
    for v in dict.fromkeys(chain.from_iterable(ag.path for ag in schedule.agents)):
        rc = parse_cell(v)
        if rc is None:
            raise UnsupportedScheduleError(f"vertex {v!r} is not a grid cell")
        r, c = rc
        if not grid.is_free(r, c):
            raise UnsupportedScheduleError(f"vertex {v!r} is not a free cell of the {H}x{W} map")
        if r not in shift:
            shift[r] = W * max(0, r - half)
            row_band[r] = (1 << W * min(H, r + half + 1) - shift[r]) - 1
        if c not in col_band:
            left = max(0, c - half)
            col_band[c] = (((1 << min(W, c + half + 1) - left) - 1) << left) * every_row
        index[v] = W * r + c
        window[v] = (r, c, ((free >> shift[r]) & row_band[r] & col_band[c]).bit_count())

    total = 0.0
    n = len(schedule.agents)
    for column in zip(*(ag.path for ag in schedule.agents)):
        occupied = set(column)
        occupancy = sum(map((1).__lshift__, map(index.__getitem__, occupied)))
        # occupancy is the first layer; a cell held by k agents also sets
        # its bit in the next k - 1 layers.
        stacked = []
        if len(occupied) < n:
            held = Counter(column)
            for depth in range(2, max(held.values()) + 1):
                stacked.append(sum(1 << index[v] for v, k in held.items() if k >= depth))
        in_row: dict[int, int] = {}
        for v in column:
            r, c, free_cells = window[v]
            banded = in_row.get(r)
            if banded is None:
                banded = in_row[r] = (occupancy >> shift[r]) & row_band[r]
            inside = (banded & col_band[c]).bit_count()
            for layer in stacked:
                inside += ((layer >> shift[r]) & row_band[r] & col_band[c]).bit_count()
            total += inside / free_cells
    return total / (n * (schedule.horizon + 1))


@dataclass(frozen=True)
class Instance:
    """A schedule together with the graph (and grid, when known) it lives on."""

    graph: Graph
    schedule: Schedule
    grid: GridMap | None = None
    map_name: str = "graph"

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "horizon": self.schedule.horizon,
            "agents": [
                {
                    "name": ag.name,
                    "start": ag.start,
                    "goal": ag.goal,
                    "path": list(ag.path),
                }
                for ag in self.schedule.agents
            ],
        }


def instance_from_json_dict(data: dict, base_dir: str = ".") -> Instance:
    """Build an Instance from parsed instance JSON.

    The graph is either embedded graph JSON or {"map_file": path} with
    the path resolved relative to base_dir.
    """
    if not isinstance(data, dict):
        raise InstanceFormatError("instance JSON must be an object")
    for key in ("graph", "horizon", "agents"):
        if key not in data:
            raise InstanceFormatError(f"instance JSON missing {key!r}")
    gspec = data["graph"]
    grid = None
    map_name = "graph"
    if isinstance(gspec, dict) and "map_file" in gspec:
        if not isinstance(gspec["map_file"], str):
            raise InstanceFormatError(f"map_file must be a string, got {gspec['map_file']!r}")
        grid = read_map_file(os.path.join(base_dir, gspec["map_file"]))
        graph = grid_to_graph(grid)
        map_name = os.path.splitext(os.path.basename(gspec["map_file"]))[0]
    else:
        graph = graph_from_json_dict(gspec)
        grid = derive_grid(graph)

    horizon = data["horizon"]
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise InstanceFormatError(f"horizon must be a non-negative integer, got {horizon!r}")
    agents = []
    if not isinstance(data["agents"], list):
        raise InstanceFormatError("'agents' must be a list")
    # path entries share the graph's vertex objects; a name that is no
    # vertex is kept as given, for validate to report
    canon = {v: v for v in graph.vertices}
    for idx, entry in enumerate(data["agents"]):
        try:
            name, start, goal, path = (entry[key] for key in ("name", "start", "goal", "path"))
        except (KeyError, TypeError) as exc:
            raise InstanceFormatError(f"agent #{idx} malformed: {exc}") from exc
        if not all(isinstance(v, str) for v in (name, start, goal)):
            raise InstanceFormatError(f"agent #{idx}: name, start and goal must be strings")
        if not isinstance(path, list) or not all(isinstance(v, str) for v in path):
            raise InstanceFormatError(f"agent #{idx}: path must be a list of vertex names")
        start, goal = canon.get(start, start), canon.get(goal, goal)
        agents.append(AgentRecord(name, start, goal, tuple(map(canon.get, path, path))))
        if len(path) != horizon + 1:
            raise InstanceFormatError(
                f"agent #{idx} path length {len(path)} does not match horizon {horizon}"
            )
    try:
        schedule = Schedule(tuple(agents), horizon)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return Instance(graph, schedule, grid, map_name)


def read_map_file(path: str) -> GridMap:
    """Parse a grid map file; a file that cannot be read (missing, a NUL
    in the path, bytes that are not UTF-8) raises InstanceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or non-UTF-8 bytes
        raise InstanceFormatError(f"cannot read map file {path!r}: {exc}") from exc
    return load_map(text)


def graph_from_json_dict(data) -> Graph:
    """Graph.from_json_dict with any malformed value as InstanceFormatError:
    vertices must be a list of strings and edges a list of 2-item lists
    of them."""
    try:
        return Graph.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InstanceFormatError(f"bad graph JSON: {exc}") from exc


def load_json(path: str):
    """Parse a JSON file; bytes that are not UTF-8, text that is not JSON
    and nesting deeper than the parser's recursion limit all raise
    InstanceFormatError. A missing file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from exc


def load_instance(path: str) -> Instance:
    return instance_from_json_dict(load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def save_json(obj, path: str) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_instance(instance: Instance, path: str) -> None:
    save_json(instance.to_json_dict(), path)
