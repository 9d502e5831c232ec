"""Workspace model: undirected graphs, grid maps, and conversions.

Vertices are opaque string tokens; grid cells use the canonical form
"r<row>c<col>" so grid and abstract pipelines share one vertex type.
Waiting is implicit: a vertex may always follow itself in a path, and
no self-loop edges are stored.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass
from types import MappingProxyType

from .errors import MapParseError, UnknownVertexError

Coord = tuple[int, int]

_CELL_RE = re.compile(r"r(0|[1-9][0-9]*)c(0|[1-9][0-9]*)")

OBSTACLE_CHARS = frozenset("@T")
FREE_CHAR = "."


def cell_name(row: int, col: int) -> str:
    return f"r{row}c{col}"


def parse_cell(name: str) -> Coord | None:
    """Return (row, col) for a canonical grid vertex name, else None.

    Only names that cell_name writes parse: ASCII digits without leading
    zeros and nothing after them, so no two names read as one cell, and
    no more digits than Python converts between int and str.
    """
    m = _CELL_RE.fullmatch(name)
    if m is None:
        return None
    try:
        return int(m[1]), int(m[2])
    except ValueError:  # over the int-string digit limit
        return None


@dataclass(frozen=True)
class GridMap:
    """Rectangular grid with a set of blocked (row, col) cells."""

    height: int
    width: int
    blocked: frozenset[Coord]

    def __post_init__(self):
        for r, c in self.blocked:
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValueError(f"blocked cell ({r},{c}) outside {self.height}x{self.width} map")

    def is_free(self, row: int, col: int) -> bool:
        return 0 <= row < self.height and 0 <= col < self.width and (row, col) not in self.blocked

    def free_cells(self) -> list[Coord]:
        """All free cells in row-major order."""
        return [
            (r, c)
            for r in range(self.height)
            for c in range(self.width)
            if (r, c) not in self.blocked
        ]

    def to_text(self) -> str:
        rows = []
        for r in range(self.height):
            rows.append("".join("@" if (r, c) in self.blocked else FREE_CHAR for c in range(self.width)))
        header = f"type octile\nheight {self.height}\nwidth {self.width}\nmap\n"
        return header + "\n".join(rows) + "\n"


def load_map(text: str) -> GridMap:
    """Parse a map file: octile header then '.'/'@'/'T' rows."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise MapParseError("expected at least 4 header lines", len(lines) + 1)
    if lines[0].strip() != "type octile":
        raise MapParseError(f"expected 'type octile', got {lines[0]!r}", 1)
    m = re.match(r"^height (\d+)$", lines[1].strip())
    if m is None:
        raise MapParseError(f"expected 'height H', got {lines[1]!r}", 2)
    height = int(m.group(1))
    m = re.match(r"^width (\d+)$", lines[2].strip())
    if m is None:
        raise MapParseError(f"expected 'width W', got {lines[2]!r}", 3)
    width = int(m.group(1))
    if lines[3].strip() != "map":
        raise MapParseError(f"expected 'map', got {lines[3]!r}", 4)
    rows = [ln for ln in lines[4:] if ln.strip() != ""]
    if len(rows) != height:
        raise MapParseError(f"expected {height} map rows, found {len(rows)}", 5 + len(rows))
    blocked = set()
    for r, row in enumerate(rows):
        line_no = 5 + r
        if len(row) != width:
            raise MapParseError(f"row has {len(row)} cells, expected {width}", line_no)
        for c, ch in enumerate(row):
            if ch in OBSTACLE_CHARS:
                blocked.add((r, c))
            elif ch != FREE_CHAR:
                raise MapParseError(f"unknown cell character {ch!r}", line_no)
    return GridMap(height, width, frozenset(blocked))


class Graph:
    """Undirected graph over string vertices.

    Vertex and edge insertion order is preserved (reductions and JSON
    round-trips depend on it). Edges are stored once per unordered pair,
    in the orientation they were first given. Each vertex name is held
    as one string object, which every edge endpoint and adjacency set
    shares; the adjacency answers membership, neighbours, == and hash.
    Waiting is implicit: no self-loop is stored or accepted.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices, edges):
        adj: dict[str, set[str]] = {}
        for v in vertices:
            if not isinstance(v, str) or v == "":
                raise ValueError(f"invalid vertex id {v!r}")
            if v not in adj:
                adj[v] = set()
        self._vertices: tuple[str, ...] = tuple(adj)
        canon = {v: v for v in self._vertices}  # any equal name -> the vertex's own object
        edge_list = []
        for u, v in edges:
            cu = canon.get(u)
            if cu is None:
                raise UnknownVertexError(u)
            cv = canon.get(v)
            if cv is None:
                raise UnknownVertexError(v)
            if cu is cv:
                raise ValueError(f"explicit self-loop on {u!r}; waiting is implicit")
            if cv in adj[cu]:
                continue
            edge_list.append((cu, cv))
            adj[cu].add(cv)
            adj[cv].add(cu)
        self._edges: tuple[tuple[str, str], ...] = tuple(edge_list)
        self._adj = adj

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def __contains__(self, v: str) -> bool:
        return v in self._adj

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        # equal graphs have equal vertex sets and edge counts
        return hash((frozenset(self._adj), len(self._edges)))

    def require(self, v: str) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)

    def neighbors(self, v: str) -> list[str]:
        self.require(v)
        return sorted(self._adj[v])

    @property
    def adjacency(self) -> Mapping[str, AbstractSet[str]]:
        """Read-only view mapping each vertex to its neighbours (waits
        not listed). Unlike neighbors(), a lookup does not check the
        vertex: ``v in graph.adjacency`` is the membership test."""
        return MappingProxyType(self._adj)

    def to_json_dict(self) -> dict:
        return {"vertices": list(self._vertices), "edges": [[u, v] for u, v in self._edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        """Graph from {"vertices": [name, ...], "edges": [[u, v], ...]}."""
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise ValueError("graph JSON needs 'vertices' and 'edges'")
        vertices, edges = data["vertices"], data["edges"]
        if not isinstance(vertices, list):
            raise ValueError(f"graph JSON 'vertices' must be a list, got {type(vertices).__name__}")
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("graph JSON 'edges' must be a list of 2-item lists")
        return cls(vertices, [tuple(e) for e in edges])


class LazyDistances:
    """Hop distances from one source, found breadth-first on demand.

    ``dist`` maps every vertex labelled so far to its final distance.
    Breadth-first order labels all vertices at distance k - 1 before
    any at distance k, so once a vertex at distance k is in ``dist``,
    a vertex missing from it lies at distance k or more. Read ``dist``
    first and call label_until only on a miss; the labels and the queue
    are kept between calls.
    """

    __slots__ = ("dist", "_adj", "_queue")

    def __init__(self, graph: Graph, source: str):
        graph.require(source)
        self.dist: dict[str, int] = {source: 0}
        self._adj = graph._adj
        self._queue = deque([source])

    def label_until(self, target: str | None) -> int | None:
        """Label vertices until target is labelled and return its
        distance; None when the source's component runs out first, which
        it always does for target None."""
        dist, adj, queue = self.dist, self._adj, self._queue
        while target not in dist:
            if not queue:
                return None
            u = queue.popleft()
            d = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        return dist[target]


def grid_to_graph(m: GridMap) -> Graph:
    """4-connected graph over the free cells of a grid map."""
    names = {(r, c): cell_name(r, c) for r, c in m.free_cells()}
    edges = []
    for (r, c), name in names.items():
        right = names.get((r, c + 1))
        if right is not None:
            edges.append((name, right))
        below = names.get((r + 1, c))
        if below is not None:
            edges.append((name, below))
    return Graph(list(names.values()), edges)


def derive_grid(g: Graph) -> GridMap | None:
    """Reconstruct a GridMap from canonical cell names, if possible.

    Cells that are not vertices count as blocked. Returns None when any
    vertex does not parse as "r<row>c<col>", and when the map would have
    more cells than the graph has vertices and edges, so that the work
    stays linear in the size of the graph however large its names.
    """
    coords = []
    for v in g.vertices:
        rc = parse_cell(v)
        if rc is None:
            return None
        coords.append(rc)
    if not coords:
        return None
    height = max(r for r, _ in coords) + 1
    width = max(c for _, c in coords) + 1
    if height * width > len(coords) + len(g.edges):
        return None
    free = set(coords)
    blocked = frozenset(
        (r, c) for r in range(height) for c in range(width) if (r, c) not in free
    )
    return GridMap(height, width, blocked)
