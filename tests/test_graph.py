import random

import pytest

from mapf_collapse import (
    Graph,
    GridMap,
    MapParseError,
    UnknownVertexError,
    grid_to_graph,
    load_map,
)
from mapf_collapse.graph import derive_grid
from mapf_collapse.reduction import reduce_independent_set

from helpers import single_edge_graph

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
    assert g.has_edge("r0c0", "r0c1") and g.has_edge("r0c1", "r0c2")
    assert not g.has_edge("r0c0", "r0c2")


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


def test_has_edge_implicit_wait():
    g = Graph(["A", "B"], [("A", "B")])
    assert g.has_edge("A", "A")
    assert g.has_edge("A", "B") and g.has_edge("B", "A")


def test_has_edge_unknown_vertex():
    g = Graph(["A"], [])
    with pytest.raises(UnknownVertexError):
        g.has_edge("A", "Z")


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
    assert g.has_edge("a_e1", "x_u1")
    assert g.has_edge("x_u1", "b_e1")
    assert not g.has_edge("x_u1", "x_u2")


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
    d = g.bfs_distances("r0c0")
    assert d == {"r0c0": 0, "r0c1": 1, "r0c2": 2, "r0c3": 3}


def test_derive_grid_round_trip():
    m = load_map(MAP_3X3_CENTER)
    derived = derive_grid(grid_to_graph(m))
    assert derived == m


def test_derive_grid_abstract_graph():
    assert derive_grid(Graph(["A", "B"], [("A", "B")])) is None
