"""Finite Hall machinery: harem checks, brute-force matchings, relaxed solving.

Three layers live here. check_harem_condition decides, by exhaustive subset
enumeration, whether a finite bipartite piece can support a perfect (1,k)-
matching, returning a violating subset when it cannot. brute_force_matching
finds the lexicographically least perfect (1,k)-matching outright; it exists
exactly when the harem condition holds, which makes the two functions
independent oracles for one another. solve_relaxed is the workhorse the
matcher runs on every ball of the incremental construction: every A-vertex
gets exactly d partners, interior B-vertices get exactly one, and B-vertices
on the cut boundary get at most one. boundary_relaxed_matching runs the same
solver on a FiniteInducedSubgraph.

The relaxed solver follows a fixed deterministic schedule (ascending orders
everywhere, augmenting repairs when a greedy placement saturates) so that
repeated runs produce identical matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import FiniteInducedSubgraph

SUBSET_CHECK_CAP = 20
BRUTE_FORCE_CAP = 14


@dataclass(frozen=True)
class HallWitness:
    """A total nondecreasing-style threshold function with h(0) = 0.

    Wraps a plain callable on nonnegative integers.
    """

    fn: Callable[[int], int]

    def __post_init__(self):
        if self(0) != 0:
            raise ValueError("witness must satisfy h(0) = 0")

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("witness arguments are nonnegative")
        if n == 0:
            return 0
        return self.fn(n)

    @classmethod
    def identity(cls) -> "HallWitness":
        return cls(lambda n: n)


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


class InfeasibleMatchingError(RuntimeError):
    """Raised when the relaxed matching contract cannot be met.

    Carries the violating cut discovered by the failed augmentation: the
    set of A-vertices explored and the B-vertices they are confined to
    (or the mirror for a failed B-placement).
    """

    def __init__(self, message: str, side: str, stuck: int,
                 a_set: tuple[int, ...], b_set: tuple[int, ...]):
        super().__init__(message)
        self.side = side
        self.stuck = stuck
        self.a_set = a_set
        self.b_set = b_set


def solve_relaxed(
    a_order: Sequence[int],
    section: Callable[[int], Sequence[int]],
    nbrs_of_b: dict[int, Sequence[int]],
    live_b: Callable[[int], bool],
    d: int,
) -> dict[int, list[int]]:
    """Deterministic core of the boundary-relaxed matching, one pass per ball.

    Inputs: a_order lists the A-vertices, ascending. An A-vertex a may take
    the B-vertices of its host section section(a) (ascending) that live_b
    accepts: its usable section. The keys of nbrs_of_b are the interior
    B-vertices, and nbrs_of_b[b] lists, ascending, the A-vertices of a_order
    whose usable section holds b.

    Contract: every a in a_order ends with exactly d partners drawn from its
    usable section; every interior b ends with exactly one owner; any other
    b ends with at most one. Interior B-vertices are placed first in
    ascending order, then A-vertices are filled to d in ascending order;
    both phases repair saturation with an ascending alternating-path search
    and raise InfeasibleMatchingError (with the blocking cut) when no repair
    exists.

    Sections are read lazily. Phase 1 reads none: it places interior b
    through nbrs_of_b, and place() recurses only into b already placed,
    which are interior too. Phase 2 reads section(a) only when a still
    lacks partners on its turn, tests liveness inline and stops at d. A
    usable section is built as a list only when grab() walks it.

    Why a ball may pass A-sections as nbrs_of_b: the host is symmetric (a_x
    ~ b_y exactly when a_y ~ b_x), which the ball build already relies on
    when it reads an interior b's A-neighbours through neighbors_a(b). So b
    lies in section(a) exactly when a lies in section(b); b is live, being
    interior; and a_order holds only live A-vertices, among them every live
    A-neighbour of the interior. Hence the live A-section of b lists exactly
    the a in a_order whose usable section holds b, which is what inverting
    every usable section over a_order gives.

    Returns {a: sorted partner list}.
    """
    owner: dict[int, int] = {}
    parts: dict[int, list[int]] = {a: [] for a in a_order}
    usable: dict[int, list[int]] = {}

    def place(b: int, visited: set[int]) -> bool:
        nbs = nbrs_of_b[b]
        for a in nbs:
            if len(parts[a]) < d and a not in visited:
                visited.add(a)
                owner[b] = a
                parts[a].append(b)
                return True
        for a in nbs:
            if a in visited:
                continue
            visited.add(a)
            for b2 in tuple(parts[a]):
                parts[a].remove(b2)
                if place(b2, visited):
                    owner[b] = a
                    parts[a].append(b)
                    return True
                parts[a].append(b2)
        return False

    def grab(a: int, visited: set[int]) -> bool:
        nbs = usable.get(a)
        if nbs is None:
            nbs = usable[a] = [b for b in section(a) if live_b(b)]
        for b in nbs:
            if b not in owner and b not in visited:
                visited.add(b)
                owner[b] = a
                parts[a].append(b)
                return True
        for b in nbs:
            if b in visited or owner[b] == a:
                continue
            visited.add(b)
            a2 = owner[b]
            parts[a2].remove(b)
            owner[b] = a
            parts[a].append(b)
            if grab(a2, visited):
                return True
            parts[a].remove(b)
            owner[b] = a2
            parts[a2].append(b)
        return False

    # Each phase first runs the greedy step that place/grab would take with
    # an empty visited set (first neighbour with room, first unowned
    # neighbour) and calls them only where that step finds nothing, so the
    # result is the one the repairs alone would give.
    for b in sorted(nbrs_of_b):
        for a in nbrs_of_b[b]:
            mine = parts[a]
            if len(mine) < d:
                owner[b] = a
                mine.append(b)
                break
        else:
            seen: set[int] = set()
            if not place(b, seen):
                trapped = tuple(sorted({bb for a in seen for bb in parts[a]} | {b}))
                raise InfeasibleMatchingError(
                    f"interior B-vertex {b} cannot be placed: {len(trapped)} B-vertices "
                    f"compete for {d}*{len(seen)} slots on A-side {sorted(seen)}",
                    "B", b, tuple(sorted(seen)), trapped,
                )
    for a in a_order:
        mine = parts[a]
        if len(mine) == d:
            continue
        for b in section(a):
            if b not in owner and live_b(b):
                owner[b] = a
                mine.append(b)
                if len(mine) == d:
                    break
        while len(mine) < d:
            seen = set()
            if not grab(a, seen):
                blocked = tuple(sorted({owner[b] for b in seen if b in owner} | {a}))
                raise InfeasibleMatchingError(
                    f"A-vertex {a} cannot reach {d} partners: A-side {list(blocked)} "
                    f"confined to B-side {sorted(seen)}",
                    "A", a, blocked, tuple(sorted(seen)),
                )
    for a in a_order:
        parts[a].sort()
    return parts


def boundary_relaxed_matching(sub: FiniteInducedSubgraph, d: int) -> Matching:
    """Match every A-vertex to exactly d partners, relaxing only the boundary.

    Interior B-vertices (those not in sub.boundary) must be used exactly
    once; boundary B-vertices at most once. Raises InfeasibleMatchingError
    carrying the violating cut when the contract cannot be met.
    """
    if d < 1:
        raise ValueError("d must be positive")
    nbrs_of_a: dict[int, list[int]] = {a: [] for a in sub.a_vertices}
    nbrs_of_b: dict[int, list[int]] = {b: [] for b in sub.interior_b()}
    for a, b in sorted(sub.edges):  # so every list comes out ascending
        nbrs_of_a[a].append(b)
        if b in nbrs_of_b:
            nbrs_of_b[b].append(a)
    parts = solve_relaxed(sub.a_vertices, nbrs_of_a.__getitem__, nbrs_of_b, lambda b: True, d)
    return Matching((a, b) for a, bs in parts.items() for b in bs)
