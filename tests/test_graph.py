"""Graph oracles, balls, and the mirror-edge prefix check."""

from __future__ import annotations

import pytest

from hallforest import (
    ExplicitBipartiteGraph,
    FiniteInducedSubgraph,
    SymmetricDoubleGraph,
    ball,
    double_graph,
    is_A_reflected,
)

from conftest import bfs_tree_adjacency


def oracle_double_ball(adj: dict[int, list[int]], center: int, radius: int):
    """Reference ball in the bipartite double of a symmetric adjacency.

    Runs the textbook alternating BFS from the A-copy of center and returns
    (a_set, b_set, edges, boundary) as sorted lists. Independent of the
    package's ball extraction.
    """
    dist = {("A", center): 0}
    frontier = [("A", center)]
    for r in range(1, radius + 1):
        nxt = []
        for side, v in frontier:
            other = "B" if side == "A" else "A"
            for w in adj[v]:
                if (other, w) not in dist:
                    dist[(other, w)] = r
                    nxt.append((other, w))
        frontier = nxt
    a_set = sorted(v for (s, v) in dist if s == "A")
    b_set = sorted(v for (s, v) in dist if s == "B")
    b_look = set(b_set)
    edges = sorted((a, b) for a in a_set for b in adj[a] if b in b_look)
    boundary = sorted(v for (s, v), r in dist.items() if s == "B" and r == radius)
    return a_set, b_set, edges, boundary


# -- neighbor enumeration ------------------------------------------------------


def test_explicit_graph_neighbors():
    g = ExplicitBipartiteGraph.from_edges([(1, 1), (1, 2), (1, 3)])
    assert g.neighbors_a(1) == (1, 2, 3)
    assert g.neighbors_b(2) == (1,)
    assert g.degree_a(1) == 3
    assert g.degree_b(3) == 1
    assert g.neighbors_a(9) == ()
    assert g.degree_a(9) == 0
    assert not g.adjacent(2, 1)


def test_double_graph_sections_match_oracle(tree6):
    host = double_graph(tree6)
    adj = bfs_tree_adjacency(6, 200)
    assert host.neighbors_a(1) == (2, 3, 4, 5, 6, 7)
    for v in range(1, 34):  # sections of 1..33 stay inside the materialized range
        assert host.neighbors_a(v) == tuple(sorted(adj[v]))
        assert host.neighbors_b(v) == host.neighbors_a(v)
        assert host.degree_a(v) == 6


# -- balls ---------------------------------------------------------------------


def test_ball_radius_zero():
    g = ExplicitBipartiteGraph.from_edges([(1, 1), (1, 2)])
    sub = ball(g, 1, "A", 0)
    assert sub.a_vertices == (1,)
    assert sub.b_vertices == ()
    assert sub.edges == ()
    assert sub.boundary == ()


def test_ball_radius_one_star():
    g = ExplicitBipartiteGraph.from_edges([(1, 1), (1, 2), (1, 3)])
    sub = ball(g, 1, "A", 1)
    assert sub.a_vertices == (1,)
    assert sub.b_vertices == (1, 2, 3)
    assert sub.edges == ((1, 1), (1, 2), (1, 3))
    assert sub.boundary == (1, 2, 3)
    assert sub.interior_b() == ()


def test_ball_matches_reference_bfs(tree6):
    host = double_graph(tree6)
    adj = bfs_tree_adjacency(6, 40_000)
    for radius in (1, 2, 3):
        sub = ball(host, 1, "A", radius)
        a_set, b_set, edges, boundary = oracle_double_ball(adj, 1, radius)
        assert list(sub.a_vertices) == a_set
        assert list(sub.b_vertices) == b_set
        assert list(sub.edges) == edges
        assert list(sub.boundary) == boundary


def test_ball_counts_around_tree_root(tree6):
    host = double_graph(tree6)
    sub = ball(host, 1, "A", 2)
    # 1 plus the 30 grandchildren on the A side, the 6 children on the B side
    assert len(sub.a_vertices) == 31
    assert len(sub.b_vertices) == 6
    assert sub.boundary == ()  # even radius around an A-center
    sub3 = ball(host, 1, "A", 3)
    assert len(sub3.boundary) == 150
    assert set(sub3.b_vertices) - set(sub3.boundary) == {2, 3, 4, 5, 6, 7}


def test_ball_rejects_bad_arguments():
    g = ExplicitBipartiteGraph.from_edges([(1, 1)])
    with pytest.raises(ValueError):
        ball(g, 1, "A", -1)
    with pytest.raises(ValueError):
        ball(g, 1, "left", 1)


# -- mirror-edge prefix check ----------------------------------------------------


def test_symmetric_double_is_reflected(tree6):
    host = double_graph(tree6)
    assert is_A_reflected(host, 30)


def test_reflectedness_needs_paired_removal(tree6):
    host = double_graph(tree6)
    # dropping a_2 alone breaks the mirror of the live edge (a_1, b_2)
    assert not is_A_reflected(host, 10, removed_a={2})
    # dropping both copies of 2 removes the obligation
    assert is_A_reflected(host, 10, removed_a={2}, removed_b={2})


def test_one_way_edge_is_not_reflected():
    lopsided = ExplicitBipartiteGraph.from_edges([(1, 2)])
    assert not is_A_reflected(lopsided, 2)
    both_ways = ExplicitBipartiteGraph.from_edges([(1, 2), (2, 1)])
    assert is_A_reflected(both_ways, 2)


# -- finite pieces ----------------------------------------------------------------


def test_subgraph_validate_rejects_stray_edge():
    with pytest.raises(ValueError):
        FiniteInducedSubgraph.build([1], [1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        FiniteInducedSubgraph.build([1], [1], [(1, 1)], boundary=[2])


def test_symmetric_double_from_callable():
    ring = SymmetricDoubleGraph(lambda v: tuple(sorted({(v % 6) + 1, ((v - 2) % 6) + 1})))
    assert ring.neighbors_a(1) == (2, 6)
    assert ring.adjacent(1, 2) and ring.adjacent(2, 1)
    assert ring.degree_b(4) == 2
