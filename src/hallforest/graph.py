"""Oracle-backed bipartite graphs and the finite pieces cut out of them.

Infinite bipartite graphs enter the library as pure oracles: a decidable
adjacency predicate plus an exact per-vertex degree. No global vertex set
is ever materialized; finite work happens on balls extracted around a
center vertex.

Both sides are indexed by positive integers. The two sides share the
number line, so a number v names two distinct vertices: the A-side copy
a_v and the B-side copy b_v. Every operation states which side it reads.

Usage:
    g = ExplicitBipartiteGraph.from_edges([(1, 1), (1, 2), (1, 3)])
    g.neighbors_a(1)                  # (1, 2, 3)
    piece = ball(g, 1, "A", 1)        # radius-1 ball around the A-vertex 1
    piece.boundary                    # (1, 2, 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


class BipartiteGraph:
    """Base class for bipartite graph oracles.

    Subclasses implement all five oracle methods: adjacency, the degree of
    each side, and the ascending neighbor section of each side.

    Oracles must be pure: same question, same answer, forever. All
    operations here are read-only and safe to share.
    """

    def adjacent(self, a: int, b: int) -> bool:
        """True iff the A-side vertex a and the B-side vertex b share an edge."""
        raise NotImplementedError

    def degree_a(self, a: int) -> int:
        raise NotImplementedError

    def degree_b(self, b: int) -> int:
        raise NotImplementedError

    def neighbors_a(self, a: int) -> tuple[int, ...]:
        """B-side neighbors of the A-side vertex a, ascending."""
        raise NotImplementedError

    def neighbors_b(self, b: int) -> tuple[int, ...]:
        """A-side neighbors of the B-side vertex b, ascending."""
        raise NotImplementedError


class ExplicitBipartiteGraph(BipartiteGraph):
    """Finite bipartite graph given by its edge list.

    Vertices outside the stored maps have degree 0. Useful for small hosts
    in tests and for the brute-force corpus.
    """

    def __init__(self, a_adj: dict[int, Iterable[int]]):
        self._a_adj = {a: tuple(sorted(set(bs))) for a, bs in a_adj.items()}
        rev: dict[int, list[int]] = {}
        for a, bs in self._a_adj.items():
            for b in bs:
                rev.setdefault(b, []).append(a)
        self._b_adj = {b: tuple(sorted(avs)) for b, avs in rev.items()}
        self._a_sets = {a: frozenset(bs) for a, bs in self._a_adj.items()}

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "ExplicitBipartiteGraph":
        adj: dict[int, list[int]] = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
        return cls(adj)

    def adjacent(self, a: int, b: int) -> bool:
        return b in self._a_sets.get(a, frozenset())

    def degree_a(self, a: int) -> int:
        return len(self._a_adj.get(a, ()))

    def degree_b(self, b: int) -> int:
        return len(self._b_adj.get(b, ()))

    def neighbors_a(self, a: int) -> tuple[int, ...]:
        return self._a_adj.get(a, ())

    def neighbors_b(self, b: int) -> tuple[int, ...]:
        return self._b_adj.get(b, ())


class SymmetricDoubleGraph(BipartiteGraph):
    """Bipartite double of a symmetric irreflexive relation on positive ints.

    Both sides are copies of the positive integers and a_x is adjacent to
    b_y exactly when the relation holds between the numbers x and y. The
    section callable must return the relation's neighbors of a number as an
    ascending tuple; symmetry of the relation makes the two sides of this
    graph look identical, which is what the downstream construction relies
    on (every edge has a mirror edge between the copied endpoints).
    """

    def __init__(self, section: Callable[[int], tuple[int, ...]]):
        self.section = section

    def adjacent(self, a: int, b: int) -> bool:
        return b in self.section(a)

    def degree_a(self, a: int) -> int:
        return len(self.section(a))

    def degree_b(self, b: int) -> int:
        return len(self.section(b))

    def neighbors_a(self, a: int) -> tuple[int, ...]:
        return self.section(a)

    def neighbors_b(self, b: int) -> tuple[int, ...]:
        return self.section(b)


@dataclass(frozen=True)
class FiniteInducedSubgraph:
    """A finite induced piece of a bipartite graph.

    boundary marks the B-side vertices sitting at the cut radius of the ball
    the piece was extracted from; matching code treats them as optional.
    All fields are ascending tuples; edges are (a, b) pairs sorted
    lexicographically.
    """

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]

    @classmethod
    def build(
        cls,
        a_vertices: Iterable[int],
        b_vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        boundary: Iterable[int] = (),
    ) -> "FiniteInducedSubgraph":
        a = tuple(sorted(set(a_vertices)))
        b = tuple(sorted(set(b_vertices)))
        e = tuple(sorted({(int(x), int(y)) for x, y in edges}))
        bd = tuple(sorted(set(boundary)))
        sub = cls(a, b, e, bd)
        sub.validate()
        return sub

    def validate(self) -> None:
        a_set, b_set = set(self.a_vertices), set(self.b_vertices)
        for x, y in self.edges:
            if x not in a_set or y not in b_set:
                raise ValueError(f"edge ({x},{y}) leaves the vertex sets")
        if not set(self.boundary) <= b_set:
            raise ValueError("boundary must be a subset of the B-side vertices")

    def interior_b(self) -> tuple[int, ...]:
        bd = set(self.boundary)
        return tuple(b for b in self.b_vertices if b not in bd)


def ball(graph: BipartiteGraph, center: int, side: str, radius: int) -> FiniteInducedSubgraph:
    """All vertices within graph distance radius of the given center.

    Distance is the ordinary shortest-path metric where every edge has
    length 1, so layers alternate sides. The boundary records the B-side
    vertices at distance exactly radius (an even radius around an A-center
    therefore has an empty boundary).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    dist: dict[tuple[str, int], int] = {(side, center): 0}
    frontier: list[tuple[str, int]] = [(side, center)]
    for r in range(1, radius + 1):
        nxt: list[tuple[str, int]] = []
        for s, v in frontier:
            nbrs = graph.neighbors_a(v) if s == "A" else graph.neighbors_b(v)
            other = "B" if s == "A" else "A"
            for w in nbrs:
                if (other, w) not in dist:
                    dist[(other, w)] = r
                    nxt.append((other, w))
        frontier = nxt
    a_set = sorted(v for (s, v) in dist if s == "A")
    b_set = sorted(v for (s, v) in dist if s == "B")
    b_lookup = set(b_set)
    edges = []
    for a in a_set:
        for b in graph.neighbors_a(a):
            if b in b_lookup:
                edges.append((a, b))
    boundary = [v for (s, v), r in dist.items() if s == "B" and r == radius]
    return FiniteInducedSubgraph.build(a_set, b_set, edges, boundary)


def is_A_reflected(
    graph: BipartiteGraph,
    vertex_range: int,
    removed_a: frozenset[int] | set[int] = frozenset(),
    removed_b: frozenset[int] | set[int] = frozenset(),
) -> bool:
    """Finite-prefix reflectedness check on the remaining induced subgraph.

    Checks, for every edge (a_x, b_y) with both numbers at most vertex_range
    and both endpoints remaining: if the mirror vertex b_x is remaining, the
    mirror edge (a_y, b_x) must be present and remaining as well. This is a
    prefix check only; it cannot certify anything about vertices beyond
    vertex_range.
    """
    for x in range(1, vertex_range + 1):
        if x in removed_a:
            continue
        if x in removed_b:
            continue  # mirror of x is gone, nothing to demand for its edges
        for y in graph.neighbors_a(x):
            if y > vertex_range or y in removed_b:
                continue
            # edge (a_x, b_y) is live and b_x exists: demand the mirror edge
            if y in removed_a or not graph.adjacent(y, x):
                return False
    return True
