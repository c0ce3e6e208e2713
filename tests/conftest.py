"""Shared fixtures and an independent regular-tree oracle.

The oracle builds breadth-first adjacency for a regular tree with a plain
queue, so the arithmetic vertex numbering in the package can be checked
against code that cannot share its bugs. ExplicitEntourage is a finite
entourage given by its pairs. The t6k3 host is the product of the degree-6
tree with a triangle: unlike every tree host, it makes the matcher reserve
and consume fans. cli_artifact runs one command of the CLI and reads back a
file it wrote. The hallforest Hypothesis profile makes every run draw the
same examples.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import pytest
from hypothesis import settings

from hallforest import Entourage, SymmetricDoubleGraph, TreeEntourage, cli, double_graph


settings.register_profile("hallforest", derandomize=True, deadline=None, max_examples=200, database=None)
settings.load_profile("hallforest")


def bfs_tree_adjacency(r: int, max_vertex: int) -> dict[int, list[int]]:
    """Neighbor lists of the r-regular tree under breadth-first numbering.

    Vertices are 1..max_vertex; lists come out in discovery order, parent
    first for every vertex except the root. Vertices close to max_vertex
    may be missing children that fell outside the range.
    """
    adj: dict[int, list[int]] = {1: []}
    queue = deque([1])
    next_label = 2
    while next_label <= max_vertex and queue:
        v = queue.popleft()
        want = r if v == 1 else r - 1
        for _ in range(want):
            if next_label > max_vertex:
                break
            w = next_label
            next_label += 1
            adj[v].append(w)
            adj[w] = [v]
            queue.append(w)
    return adj


class ExplicitEntourage(Entourage):
    def __init__(self, pairs: Iterable[tuple[int, int]]):
        nbrs: dict[int, set[int]] = {}
        for x, y in pairs:
            if x != y:  # the diagonal is implied; neighbors leaves it out
                nbrs.setdefault(x, set()).add(y)
                nbrs.setdefault(y, set()).add(x)
        self._nbrs = {v: tuple(sorted(s)) for v, s in nbrs.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs.get(v, ())


@pytest.fixture(scope="session")
def tree6() -> TreeEntourage:
    return TreeEntourage(6)


@pytest.fixture(scope="session")
def tree7() -> TreeEntourage:
    return TreeEntourage(7)


@pytest.fixture(scope="session")
def t6k3() -> SymmetricDoubleGraph:
    """Bipartite host of T6 x K3, degree 8.

    The vertex (t, i), with t a tree6 vertex and i in 0..2, is the number
    3(t-1) + i + 1; it is related to (s, i) for every tree neighbor s of t
    and to (t, j) for j != i.
    """
    tree = TreeEntourage(6)

    def section(v: int) -> tuple[int, ...]:
        t, i = divmod(v - 1, 3)
        layer = [3 * (s - 1) + i + 1 for s in tree.neighbors(t + 1)]
        fiber = [3 * t + j + 1 for j in range(3) if j != i]
        return tuple(sorted(layer + fiber))

    return SymmetricDoubleGraph(section)


@pytest.fixture()
def host_of(request):
    """Look a host fixture up by name; entourages come back doubled."""
    def lookup(space: str) -> SymmetricDoubleGraph:
        host = request.getfixturevalue(space)
        return host if isinstance(host, SymmetricDoubleGraph) else double_graph(host)

    return lookup


@pytest.fixture()
def cli_artifact(tmp_path):
    """Run one command of the CLI on a regular tree; return a file it wrote."""
    def run(r: int, argv: list, name: str) -> str:
        assert cli.main(["gen-tree", "--r", str(r), "--out", str(tmp_path)]) == 0
        space, out = str(tmp_path / "descriptor.json"), str(tmp_path / "out")
        assert cli.main([str(a) for a in argv] + ["--space", space, "--out", out]) == 0
        return (tmp_path / "out" / name).read_text()

    return run
