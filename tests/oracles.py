"""Finite Hall references: exhaustive harem checks and brute-force matchings.

These are the classical finite background of the construction, kept as
test references only. check_harem_condition decides, by exhaustive subset
enumeration, whether a finite bipartite piece can support a perfect (1,k)-
matching, returning a violating subset when it cannot. brute_force_matching
finds the lexicographically least perfect (1,k)-matching outright; it exists
exactly when the harem condition holds, which makes the two functions
independent oracles for one another. oracle_double_ball is the textbook
alternating BFS ball in the bipartite double of an explicit adjacency.
plain_first_repeat walks an orbit to its first repeat, the reference for
the cycle-control bounds. FullWalkClassifier classifies a point of the
forest by walking its whole orbit, with no memo.

Nothing here imports hallforest (tests/test_hall.py checks that), so the
references share no code with what they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

SUBSET_CHECK_CAP = 20
BRUTE_FORCE_CAP = 14


@dataclass(frozen=True)
class FiniteInducedSubgraph:
    """A finite bipartite graph: ascending vertex tuples, edges as sorted (a, b) pairs."""

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(
        cls,
        a_vertices: Iterable[int],
        b_vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
    ) -> "FiniteInducedSubgraph":
        a = tuple(sorted(set(a_vertices)))
        b = tuple(sorted(set(b_vertices)))
        e = tuple(sorted({(int(x), int(y)) for x, y in edges}))
        sub = cls(a, b, e)
        sub.validate()
        return sub

    def validate(self) -> None:
        a_set, b_set = set(self.a_vertices), set(self.b_vertices)
        for x, y in self.edges:
            if x not in a_set or y not in b_set:
                raise ValueError(f"edge ({x},{y}) leaves the vertex sets")


class Matching:
    """A set of (a, b) pairs in which every b appears at most once."""

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.pairs: tuple[tuple[int, int], ...] = tuple(sorted((int(a), int(b)) for a, b in pairs))
        self._b_owner: dict[int, int] = {}
        self._a_parts: dict[int, list[int]] = {}
        for a, b in self.pairs:
            if b in self._b_owner:
                raise ValueError(f"B-vertex {b} is matched twice")
            self._b_owner[b] = a
            self._a_parts.setdefault(a, []).append(b)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs)!r})"

    def a_partners(self, a: int) -> tuple[int, ...]:
        return tuple(self._a_parts.get(a, ()))

    def b_owner(self, b: int) -> int | None:
        return self._b_owner.get(b)

    def a_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._a_parts))


@dataclass(frozen=True)
class HaremViolation:
    side: str
    subset: tuple[int, ...]
    neighborhood: tuple[int, ...]


@dataclass(frozen=True)
class HaremCheck:
    ok: bool
    k: int
    violation: HaremViolation | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_harem_condition(sub: FiniteInducedSubgraph, k: int) -> HaremCheck:
    """Exhaustively test the two-sided counting condition for (1,k)-matchings.

    Requires |N(X)| >= k|X| for every subset X of the A side and
    k|N(Y)| >= |Y| for every subset Y of the B side. Returns the first
    violating subset in ascending bitmask order, A side first, so failures
    are reproducible.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a_list, b_list = sub.a_vertices, sub.b_vertices
    if len(a_list) > SUBSET_CHECK_CAP or len(b_list) > SUBSET_CHECK_CAP:
        raise ValueError(f"side larger than {SUBSET_CHECK_CAP}: refusing exhaustive subset check")
    b_index = {b: i for i, b in enumerate(b_list)}
    a_index = {a: i for i, a in enumerate(a_list)}
    a_mask = [0] * len(a_list)  # neighborhood of each a as a bitmask over b_list
    b_mask = [0] * len(b_list)
    for a, b in sub.edges:
        a_mask[a_index[a]] |= 1 << b_index[b]
        b_mask[b_index[b]] |= 1 << a_index[a]

    viol = _first_counting_violation(a_mask, len(a_list), lambda nb, sz: nb >= k * sz)
    if viol is not None:
        subset, hood = viol
        return HaremCheck(False, k, HaremViolation(
            "A",
            tuple(a_list[i] for i in subset),
            tuple(b_list[i] for i in hood),
        ))
    viol = _first_counting_violation(b_mask, len(b_list), lambda nb, sz: k * nb >= sz)
    if viol is not None:
        subset, hood = viol
        return HaremCheck(False, k, HaremViolation(
            "B",
            tuple(b_list[i] for i in subset),
            tuple(a_list[i] for i in hood),
        ))
    return HaremCheck(True, k)


def _first_counting_violation(masks: Sequence[int], n: int, good: Callable[[int, int], bool]):
    # Incremental neighborhood masks: hood[m] = hood[m - lowbit] | mask[lowbit].
    if n == 0:
        return None
    hood = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        hood[m] = hood[m ^ low] | masks[low.bit_length() - 1]
        if not good(hood[m].bit_count(), m.bit_count()):
            subset = tuple(i for i in range(n) if m >> i & 1)
            nb = hood[m]
            hoodset = tuple(i for i in range(nb.bit_length()) if nb >> i & 1)
            return subset, hoodset
    return None


def brute_force_matching(sub: FiniteInducedSubgraph, k: int) -> Matching | None:
    """Lexicographically least perfect (1,k)-matching, or None.

    Perfect means: every A-vertex has exactly k partners and every B-vertex
    exactly one. B-vertices are assigned in ascending order and each tries
    its least usable A-neighbor first, with backtracking, so the first
    complete assignment found is the least one in the induced pair order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a_list, b_list = sub.a_vertices, sub.b_vertices
    if len(a_list) > BRUTE_FORCE_CAP:
        raise ValueError(f"more than {BRUTE_FORCE_CAP} A-vertices: refusing brute-force search")
    if len(b_list) != k * len(a_list):
        return None
    nbrs_of_b: dict[int, list[int]] = {b: [] for b in b_list}
    for a, b in sub.edges:
        nbrs_of_b[b].append(a)
    for b in b_list:
        nbrs_of_b[b].sort()
    capacity = {a: k for a in a_list}
    chosen: list[tuple[int, int]] = []

    def place(i: int) -> bool:
        if i == len(b_list):
            return True
        b = b_list[i]
        for a in nbrs_of_b[b]:
            if capacity[a]:
                capacity[a] -= 1
                chosen.append((a, b))
                if place(i + 1):
                    return True
                chosen.pop()
                capacity[a] += 1
        return False

    if not place(0):
        return None
    return Matching(chosen)


def oracle_double_ball(adj: dict[int, list[int]], center: int, radius: int):
    """Reference ball in the bipartite double of a symmetric adjacency.

    Runs the textbook alternating BFS from the A-copy of center and returns
    (a_set, b_set, edges, boundary) as sorted lists; the boundary is the
    B-vertices at distance exactly radius.
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


def plain_first_repeat(f: Callable[[int], int], n: int, calls: int) -> tuple[int, int]:
    """(entry, period) of n's f-orbit: where its cycle starts and its length.

    Walks the orbit to its first repeat, calling f at most calls times, and
    fails the test when no repeat comes within them.
    """
    seen = {n: 0}
    x = n
    for _ in range(calls):
        x = f(x)
        if x in seen:
            return seen[x], len(seen) - seen[x]
        seen[x] = len(seen)
    raise AssertionError(f"the orbit of {n} does not repeat within {calls} calls of f")


class FullWalkClassifier:
    """The forest's point classification, recomputed from scratch per query.

    Every query walks its point's whole f-orbit to the first repeat, and every
    ray check walks the checked point's orbit again; nothing is remembered.
    classify returns (kind, height, root), which a Classification equals.
    """

    def __init__(self, f: Callable[[int], int], preimages: Callable[[int], Sequence[int]]):
        self.f, self.preimages = f, preimages

    def orbit(self, n: int) -> tuple[list[int], int]:
        entry, period = plain_first_repeat(self.f, n, 3 * n + 2)
        orbit = [n]
        for _ in range(entry + period - 1):
            orbit.append(self.f(orbit[-1]))
        return orbit, entry

    def least_transient_preimage(self, n: int) -> int:
        orbit, entry = self.orbit(n)
        periodic = orbit[-1] if entry == 0 else None
        return min(p for p in self.preimages(n) if p != periodic)

    def classify(self, u: int) -> tuple[str, int, int]:
        orbit, entry = self.orbit(u)
        cycle = orbit[entry:]
        root = min(cycle)
        image = cycle[(cycle.index(root) + 1) % len(cycle)]
        if entry == 0:
            return ("root" if u == root else "image" if u == image else "cycle", 0, root)
        ray = "root_ray" if cycle[0] == root else "image_ray" if cycle[0] == image else None
        for i in range(entry - 1, -1, -1):
            if ray and self.least_transient_preimage(orbit[i + 1]) != orbit[i]:
                ray = None
        return (ray, entry, root) if ray else ("plain", 0, root)
