import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_collapse import (
    Graph,
    GridMap,
    MapParseError,
    UnknownVertexError,
    grid_to_graph,
    load_map,
    parse_cell,
)
from mapf_collapse.graph import LazyDistances, derive_grid
from mapf_collapse.reduction import reduce_independent_set
from mapf_collapse.schedule import instance_from_json_dict

from helpers import ReferenceGraph, edge_instance_json, reference_bfs_distances, single_edge_graph

MAP_3X3_CENTER = "type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n"


def test_load_map_all_free():
    m = load_map("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
    assert m == GridMap(2, 2, frozenset())


def test_load_map_center_obstacle():
    m = load_map(MAP_3X3_CENTER)
    assert m.blocked == frozenset({(1, 1)})
    assert m.height == 3 and m.width == 3


def test_load_map_accepts_tree_obstacles():
    m = load_map("type octile\nheight 1\nwidth 3\nmap\n.T@\n")
    assert m.blocked == frozenset({(0, 1), (0, 2)})


def test_load_map_short_row_fails_with_line_number():
    text = "type octile\nheight 2\nwidth 3\nmap\n...\n..\n"
    with pytest.raises(MapParseError, match="line 6"):
        load_map(text)


def test_load_map_bad_header():
    with pytest.raises(MapParseError, match="line 1"):
        load_map("type quad\nheight 1\nwidth 1\nmap\n.\n")
    with pytest.raises(MapParseError, match="line 2"):
        load_map("type octile\nheight x\nwidth 1\nmap\n.\n")


def test_load_map_unknown_character():
    with pytest.raises(MapParseError, match="line 5"):
        load_map("type octile\nheight 1\nwidth 1\nmap\nZ\n")


def test_map_text_round_trip():
    m = load_map(MAP_3X3_CENTER)
    assert load_map(m.to_text()) == m
    rng = random.Random(7)
    for _ in range(20):
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        cells = [(r, c) for r in range(h) for c in range(w)]
        blocked = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
        m = GridMap(h, w, blocked)
        assert load_map(m.to_text()) == m


def test_grid_to_graph_single_cell():
    g = grid_to_graph(GridMap(1, 1, frozenset()))
    assert len(g.vertices) == 1 and len(g.edges) == 0


def test_grid_to_graph_line():
    g = grid_to_graph(GridMap(1, 3, frozenset()))
    assert len(g.vertices) == 3 and len(g.edges) == 2
    assert g.neighbors("r0c1") == ["r0c0", "r0c2"]
    assert g.neighbors("r0c0") == ["r0c1"]


def test_grid_to_graph_ring():
    g = grid_to_graph(load_map(MAP_3X3_CENTER))
    assert len(g.vertices) == 8
    assert len(g.edges) == 8


def test_grid_to_graph_deterministic():
    m = load_map(MAP_3X3_CENTER)
    g1, g2 = grid_to_graph(m), grid_to_graph(m)
    assert g1.vertices == g2.vertices and g1.edges == g2.edges


def test_grid_to_graph_edge_bound():
    rng = random.Random(3)
    for _ in range(20):
        h, w = rng.randint(1, 8), rng.randint(1, 8)
        cells = [(r, c) for r in range(h) for c in range(w)]
        blocked = frozenset(rng.sample(cells, rng.randint(0, len(cells) // 2)))
        g = grid_to_graph(GridMap(h, w, blocked))
        assert len(g.edges) <= 2 * h * w


def test_adjacency_matches_neighbors_and_is_read_only():
    g = Graph(["A", "B", "C"], [("A", "B"), ("C", "B")])
    adj = g.adjacency
    assert {v: sorted(ns) for v, ns in adj.items()} == {v: g.neighbors(v) for v in g.vertices}
    assert "Z" not in adj
    with pytest.raises(TypeError):
        adj["Z"] = frozenset()


def test_reduction_graph_edges():
    red = reduce_independent_set(single_edge_graph(), 1)
    g = red.graph
    assert {"a_e1", "b_e1"} <= g.adjacency["x_u1"]
    assert "x_u2" not in g.adjacency["x_u1"]


def test_graph_rejects_edges_with_unknown_endpoints():
    with pytest.raises(UnknownVertexError):
        Graph(["A"], [("A", "B")])


def test_graph_json_round_trip():
    g = Graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert Graph.from_json_dict(g.to_json_dict()) == g


def test_graph_preserves_edge_order_and_orientation():
    g = Graph(["A", "B", "C"], [("C", "B"), ("A", "B")])
    assert g.edges == (("C", "B"), ("A", "B"))


def test_bfs_distances():
    g = grid_to_graph(GridMap(1, 4, frozenset()))
    lazy = LazyDistances(g, "r0c0")
    assert lazy.label_until(None) is None
    assert lazy.dist == {"r0c0": 0, "r0c1": 1, "r0c2": 2, "r0c3": 3}


def _split_graph(rng: random.Random) -> Graph:
    """A sparse random graph or an obstacle-heavy grid: both usually
    fall into several components."""
    if rng.random() < 0.5:
        names = [f"v{i}" for i in range(rng.randint(2, 40))]
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        return Graph(names, rng.sample(pairs, rng.randint(0, len(names))))
    size = rng.randint(2, 12)
    cells = [(r, c) for r in range(size) for c in range(size)]
    blocked = frozenset(rng.sample(cells, int(rng.uniform(0.2, 0.45) * len(cells))))
    return grid_to_graph(GridMap(size, size, blocked))


def test_lazy_distances_match_full_bfs():
    """Queried in random order, with or without the other components'
    vertices held back to the end, and again after the component is
    exhausted, every answer equals a full BFS, every kept label is final,
    the labels cover every vertex nearer than the farthest label, and the
    answer is None exactly outside the source's component."""
    rng = random.Random(29)
    partial = 0
    for case in range(300):
        g = _split_graph(rng)
        source = rng.choice(g.vertices)
        full = reference_bfs_distances(g, source)
        whole = LazyDistances(g, source)
        assert whole.label_until(None) is None
        assert whole.dist == full, f"case {case}"
        queries = rng.sample(g.vertices, len(g.vertices))
        if rng.random() < 0.5:
            queries.sort(key=lambda v: v not in full)  # stable: inside first
        queries += rng.choices(g.vertices, k=5)
        lazy = LazyDistances(g, source)
        for v in queries:
            assert lazy.label_until(v) == full.get(v), f"case {case}, vertex {v}"
            assert lazy.dist.items() <= full.items(), f"case {case}"
            reach = max(lazy.dist.values())
            assert all(u in lazy.dist for u, d in full.items() if d < reach), f"case {case}"
            partial += len(lazy.dist) < len(full)
        assert lazy.dist == full
    assert partial > 1000  # many queries answer before the component is exhausted


def test_derive_grid_round_trip():
    m = load_map(MAP_3X3_CENTER)
    derived = derive_grid(grid_to_graph(m))
    assert derived == m


def test_derive_grid_abstract_graph():
    assert derive_grid(Graph(["A", "B"], [("A", "B")])) is None


def test_derive_grid_only_when_the_map_is_no_larger_than_the_graph():
    # 3 vertices + 1 edge: a 1x4 box is a map, a 1x5 box is not
    edge = [("r0c0", "r0c1")]
    m = derive_grid(Graph(["r0c0", "r0c1", "r0c3"], edge))
    assert m == GridMap(1, 4, frozenset({(0, 2)}))
    assert derive_grid(Graph(["r0c0", "r0c1", "r0c4"], edge)) is None


ALIASES_OF_R1C1 = ["r01c1", "r1c01", "r1c1\n", "r\u0661c1"]  # the last is an Arabic-Indic one


@pytest.mark.parametrize("name", ALIASES_OF_R1C1 + ["r00c0", "r0c00"])
def test_parse_cell_reads_only_canonical_names(name):
    assert parse_cell(name) is None


def test_parse_cell_refuses_more_digits_than_int_reads():
    # 5,000 digits: over Python's default limit on int-string conversion
    assert parse_cell("r" + "1" * 5000 + "c0") is None
    assert parse_cell("r0c" + "1" * 5000) is None
    assert derive_grid(Graph(["r0c0", "r" + "1" * 5000 + "c0"], [])) is None


@pytest.mark.parametrize("alias", ALIASES_OF_R1C1)
def test_graph_with_an_aliased_cell_name_is_not_a_map(alias):
    # read as a 2x2 map, two of its vertices would be one cell
    assert derive_grid(Graph(["r0c0", "r0c1", "r1c0", "r1c1", alias], [])) is None


# ------------------------------------------ one object per vertex name

NAMES = ("va", "vb", "vc", "vd", "r0c0", "r0c1")


def fresh(name: str) -> str:
    """An equal string that is a different object."""
    copy = name.encode().decode()
    assert copy == name and copy is not name
    return copy


@st.composite
def vertex_and_edge_lists(draw):
    """Vertex lists with repeats; edge lists with repeats and both
    orientations, given as fresh string objects."""
    vertices = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=10))
    distinct = sorted(set(vertices))
    pairs = draw(st.lists(st.tuples(st.sampled_from(distinct), st.sampled_from(distinct)), max_size=16))
    edges = [(fresh(u), fresh(v)) for u, v in pairs if u != v]
    return vertices, edges


def assert_same_graph(g: Graph, ref: ReferenceGraph) -> None:
    assert g.vertices == ref.vertices
    assert g.edges == ref.edges
    assert g.to_json_dict() == ref.to_json_dict()
    for u in NAMES:
        if u not in ref.vertex_set:
            assert u not in g
            with pytest.raises(UnknownVertexError):
                g.neighbors(u)
            continue
        assert u in g
        assert g.adjacency[u] == ref.adj[u]
        assert g.neighbors(u) == sorted(ref.adj[u])


def assert_shares_vertex_objects(g: Graph) -> None:
    own = {v: v for v in g.vertices}
    for u, v in g.edges:
        assert u is own[u] and v is own[v]
    for u, neighbours in g.adjacency.items():
        assert u is own[u]
        assert all(w is own[w] for w in neighbours)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(first=vertex_and_edge_lists(), second=vertex_and_edge_lists(), seed=st.integers(0, 2**16))
def test_graph_matches_normalized_key_reference(first, second, seed):
    g1, g2 = Graph(*first), Graph(*second)
    ref1, ref2 = ReferenceGraph(*first), ReferenceGraph(*second)
    assert_same_graph(g1, ref1)
    assert_same_graph(g2, ref2)
    assert_shares_vertex_objects(g1)
    assert (g1 == g2) == (g2 == g1) == (ref1 == ref2)
    if g1 == g2:
        assert hash(g1) == hash(g2)
    # the same graph from permuted input: equal, with an equal hash
    rng = random.Random(seed)
    vertices, edges = list(first[0]), [(v, u) if rng.random() < 0.5 else (u, v) for u, v in first[1]]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    permuted = Graph(vertices, edges)
    assert permuted == g1 and g1 == permuted
    assert hash(permuted) == hash(g1)
    assert Graph.from_json_dict(json.loads(json.dumps(g1.to_json_dict()))) == g1


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["va", ""], []),
        (["va", 3], []),
        (["va", None], []),
        (["va"], [("va", "vz")]),
        (["va"], [("vz", "va")]),
        (["va"], [("vz", "vz")]),
        (["va"], [("va", "va")]),
        (["va", "vb"], [("va", "vb"), ("vb", "vb"), ("vz", "va")]),
        (["va"], [(["va"], "va")]),
    ],
    ids=["empty-id", "int-id", "none-id", "unknown-v", "unknown-u", "unknown-loop", "self-loop",
         "first-bad-edge", "unhashable"],
)
def test_graph_errors_match_reference(vertices, edges):
    with pytest.raises(Exception) as expected:
        ReferenceGraph(vertices, edges)
    with pytest.raises(Exception) as raised:
        Graph(vertices, edges)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_graph_endpoints_share_vertex_objects():
    vertices = ["va", "vb", "vc"]
    g = Graph(vertices, [(fresh("va"), fresh("vb")), (fresh("vc"), fresh("vb")), (fresh("vb"), fresh("va"))])
    assert all(v is w for v, w in zip(g.vertices, vertices))
    assert_shares_vertex_objects(g)
    assert_shares_vertex_objects(grid_to_graph(load_map(MAP_3X3_CENTER)))
    loaded = Graph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert loaded == g
    assert_shares_vertex_objects(loaded)


def test_loaded_paths_share_the_graph_vertex_objects():
    data = edge_instance_json()
    data["agents"].append({"name": "a1", "start": "B", "goal": "Z", "path": ["B", "Z"]})
    inst = instance_from_json_dict(json.loads(json.dumps(data)))
    own = {v: v for v in inst.graph.vertices}
    a0, a1 = inst.schedule.agents
    assert all(v is own[v] for v in (a0.start, a0.goal) + a0.path)
    assert a1.start is own["B"] and a1.path[0] is own["B"]
    # a name that is no vertex is kept as given, for validate to report
    assert a1.goal == "Z" and a1.path[1] == "Z"
