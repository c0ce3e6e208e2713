"""The bipartite host as a neighborhood oracle, and its mirror-edge check.

Infinite bipartite graphs enter the library as pure oracles: a section
callable listing each number's neighbors. No global vertex set is ever
materialized; the matcher reads sections around one center at a time.

Both sides are indexed by positive integers. The two sides share the
number line, so a number v names two distinct vertices: the A-side copy
a_v and the B-side copy b_v. Every operation states which side it reads.

Usage:
    g = SymmetricDoubleGraph(lambda v: (v - 1, v + 1) if v > 1 else (2,))
    g.neighbors_a(2)                  # (1, 3)
    g.adjacent(2, 3)                  # True
"""

from __future__ import annotations

from typing import Callable


class SymmetricDoubleGraph:
    """Bipartite double of a symmetric irreflexive relation on positive ints.

    Both sides are copies of the positive integers and a_x is adjacent to
    b_y exactly when the relation holds between the numbers x and y. The
    section callable must return the relation's neighbors of a number as an
    ascending tuple; symmetry of the relation makes the two sides of this
    graph look identical, which is what the downstream construction relies
    on (every edge has a mirror edge between the copied endpoints).

    The oracle must be pure: same question, same answer, forever.
    """

    def __init__(self, section: Callable[[int], tuple[int, ...]]):
        self.section = section

    def adjacent(self, a: int, b: int) -> bool:
        """True iff the A-side vertex a and the B-side vertex b share an edge."""
        return b in self.section(a)

    def degree_a(self, a: int) -> int:
        return len(self.section(a))

    def degree_b(self, b: int) -> int:
        return len(self.section(b))

    def neighbors_a(self, a: int) -> tuple[int, ...]:
        """B-side neighbors of the A-side vertex a, ascending."""
        return self.section(a)

    def neighbors_b(self, b: int) -> tuple[int, ...]:
        """A-side neighbors of the B-side vertex b, ascending."""
        return self.section(b)


def is_A_reflected(
    graph: SymmetricDoubleGraph,
    vertex_range: int,
    removed_a: frozenset[int] | set[int] = frozenset(),
    removed_b: frozenset[int] | set[int] = frozenset(),
) -> bool:
    """Finite-prefix reflectedness check on the remaining induced subgraph.

    Checks, for every edge (a_x, b_y) with both numbers at most vertex_range
    and both endpoints remaining: if the mirror vertex b_x is remaining, the
    mirror edge (a_y, b_x) must be present and remaining as well. A prefix
    check only: it reads removed_a, removed_b and the host's sections only at
    numbers up to vertex_range, and certifies nothing beyond it.
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
