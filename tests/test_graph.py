"""Graph oracles and the mirror-edge prefix check."""

from __future__ import annotations

import pytest

from hallforest import SymmetricDoubleGraph, double_graph, is_A_reflected

from conftest import bfs_tree_adjacency
from oracles import FiniteInducedSubgraph


# -- neighbor enumeration ------------------------------------------------------


def test_double_graph_sections_match_oracle(tree6):
    host = double_graph(tree6)
    adj = bfs_tree_adjacency(6, 200)
    assert host.neighbors_a(1) == (2, 3, 4, 5, 6, 7)
    for v in range(1, 34):  # sections of 1..33 stay inside the materialized range
        assert host.neighbors_a(v) == tuple(sorted(adj[v]))
        assert host.neighbors_b(v) == host.neighbors_a(v)
        assert host.degree_a(v) == 6


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
    lopsided = SymmetricDoubleGraph(lambda v: {1: (2,)}.get(v, ()))
    assert not is_A_reflected(lopsided, 2)
    both_ways = SymmetricDoubleGraph(lambda v: {1: (2,), 2: (1,)}.get(v, ()))
    assert is_A_reflected(both_ways, 2)


# -- finite pieces ----------------------------------------------------------------


def test_subgraph_validate_rejects_stray_edge():
    with pytest.raises(ValueError):
        FiniteInducedSubgraph.build([1], [1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        FiniteInducedSubgraph.build([1], [1], [(2, 1)])


def test_symmetric_double_from_callable():
    ring = SymmetricDoubleGraph(lambda v: tuple(sorted({(v % 6) + 1, ((v - 2) % 6) + 1})))
    assert ring.neighbors_a(1) == (2, 6)
    assert ring.adjacent(1, 2) and ring.adjacent(2, 1)
    assert ring.degree_b(4) == 2
