"""Relaxed matching on a ball: the solver every matcher step runs.

solve_relaxed is the workhorse the matcher runs on every ball of the
incremental construction: every A-vertex gets exactly d partners, interior
B-vertices get exactly one, and B-vertices on the cut boundary get at most
one. It follows a fixed deterministic schedule (ascending orders
everywhere, a greedy pass, and augmenting repairs of the whole ball when
that pass misses) so that repeated runs produce identical matchings, and
raises InfeasibleMatchingError with the blocking cut when the contract
cannot be met. It matches the whole ball, which certifies the step, but
returns only the partner lists of the ball's center and of the A-vertices
that hold an interior B-vertex: those are all a matcher step reads.
HallWitness is the host's Hall witness, which the matcher takes.

The finite Hall theory behind it (exhaustive harem checks, brute-force
(1,k)-matchings) serves only as a test reference, in tests/oracles.py.
"""

from __future__ import annotations

from typing import Callable, Collection, Sequence


class HallWitness:
    """A total nondecreasing-style threshold function with h(0) = 0.

    Wraps a plain callable on nonnegative integers.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[int], int]):
        self.fn = fn

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("witness arguments are nonnegative")
        if n == 0:
            return 0
        return self.fn(n)

    @classmethod
    def identity(cls) -> "HallWitness":
        return cls(lambda n: n)


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
    owner: Sequence[int],
    reserved: Collection[int],
    d: int,
    center: int,
) -> dict[int, list[int]]:
    """Deterministic core of the boundary-relaxed matching, one pass per ball.

    Inputs: a_order lists the A-vertices, ascending, and center is one of
    them. A B-vertex b is live when b >= len(owner) or owner[b] is 0, and b
    is not in reserved; the matcher passes its owner array and its fan-leaf
    map, and this function only reads them. An A-vertex a may take the live
    B-vertices of its host section section(a) (ascending): its usable
    section. The keys of nbrs_of_b are the interior B-vertices, and
    nbrs_of_b[b] lists, ascending, the A-vertices of a_order whose usable
    section holds b.

    Contract: every a in a_order ends with exactly d partners drawn from its
    usable section; every interior b ends with exactly one owner; any other
    b ends with at most one. Interior B-vertices are placed first in
    ascending order, each with the first A-vertex of its list that has room,
    then A-vertices are filled to d in ascending order, each with the first
    unowned entries of its usable section. Phase 1 reads no section, and
    phase 2 reads section(a) only when a still lacks partners on its turn.

    That greedy pass is the step an ascending alternating-path search takes
    while it finds room. On the first miss this returns _repair_solve of
    the whole ball, the search from scratch, which gives exactly the
    partners, or the InfeasibleMatchingError with the blocking cut, that
    repairing in place would give.

    Why a ball may pass A-sections as nbrs_of_b: the host is symmetric (a_x
    ~ b_y exactly when a_y ~ b_x), which the ball build already relies on
    when it reads an interior b's A-neighbours through neighbors_a(b). So b
    lies in section(a) exactly when a lies in section(b); b is live, being
    interior; and a_order holds only live A-vertices, among them every live
    A-neighbour of the interior. Hence the live A-section of b lists exactly
    the a in a_order whose usable section holds b, which is what inverting
    every usable section over a_order gives.

    Returns {a: sorted partner list} for the center and for each A-vertex
    that holds an interior B-vertex, the only lists a matcher step reads.
    Every other A-vertex is matched all the same, as the certificate that
    the ball can be matched, but its partners are only counted.
    """
    # the returned lists: interior partners, kept only for A-vertices that get one
    kept: dict[int, list[int]] = {}
    for b in sorted(nbrs_of_b):
        for a in nbrs_of_b[b]:
            mine = kept.get(a)
            if mine is None:
                kept[a] = [b]
                break
            if len(mine) < d:
                mine.append(b)
                break
        else:
            return _kept_repair(a_order, section, nbrs_of_b, owner, reserved, d, center)
    kept.setdefault(center, [])  # and the center's, which it may fill in phase 2
    taken = set(nbrs_of_b)  # phase 1 placed every interior b
    taken.update(reserved)  # a fan leaf stays out of every ball, so it counts as taken
    n_owner = len(owner)
    take = taken.add
    for a in a_order:
        if a not in kept:
            left = d  # no list is returned for a: count its partners
            for b in section(a):
                if b not in taken and (b >= n_owner or not owner[b]):
                    take(b)
                    left -= 1
                    if not left:
                        break
            else:
                return _kept_repair(a_order, section, nbrs_of_b, owner, reserved, d, center)
            continue
        mine = kept[a]
        left = d - len(mine)
        if not left:
            continue
        for b in section(a):
            if b not in taken and (b >= n_owner or not owner[b]):
                take(b)
                mine.append(b)
                left -= 1
                if not left:
                    break
        else:
            return _kept_repair(a_order, section, nbrs_of_b, owner, reserved, d, center)
        mine.sort()  # its interior partners, if any, came first
    return kept


def _kept_repair(
    a_order: Sequence[int],
    section: Callable[[int], Sequence[int]],
    nbrs_of_b: dict[int, Sequence[int]],
    owner: Sequence[int],
    reserved: Collection[int],
    d: int,
    center: int,
) -> dict[int, list[int]]:
    """_repair_solve of the whole ball, cut to the lists solve_relaxed returns."""
    parts = _repair_solve(a_order, section, nbrs_of_b, owner, reserved, d)
    return {a: bs for a, bs in parts.items()
            if a == center or any(b in nbrs_of_b for b in bs)}


def _repair_solve(
    a_order: Sequence[int],
    section: Callable[[int], Sequence[int]],
    nbrs_of_b: dict[int, Sequence[int]],
    owner: Sequence[int],
    reserved: Collection[int],
    d: int,
) -> dict[int, list[int]]:
    """solve_relaxed's contract met by the repair search alone.

    Places each interior b by place() and fills each A-vertex to d by
    grab(), both starting from an empty visited set, and raises the
    blocking cut when one finds no alternating path. A usable section is
    built as a list only when grab() walks it.
    """
    n_owner = len(owner)
    taken: dict[int, int] = {}
    parts: dict[int, list[int]] = {a: [] for a in a_order}
    usable: dict[int, list[int]] = {}

    def place(b: int, visited: set[int]) -> bool:
        nbs = nbrs_of_b[b]
        for a in nbs:
            if len(parts[a]) < d and a not in visited:
                visited.add(a)
                taken[b] = a
                parts[a].append(b)
                return True
        for a in nbs:
            if a in visited:
                continue
            visited.add(a)
            for b2 in tuple(parts[a]):
                parts[a].remove(b2)
                if place(b2, visited):
                    taken[b] = a
                    parts[a].append(b)
                    return True
                parts[a].append(b2)
        return False

    def grab(a: int, visited: set[int]) -> bool:
        nbs = usable.get(a)
        if nbs is None:
            nbs = usable[a] = [b for b in section(a)
                               if (b >= n_owner or not owner[b]) and b not in reserved]
        for b in nbs:
            if b not in taken and b not in visited:
                visited.add(b)
                taken[b] = a
                parts[a].append(b)
                return True
        for b in nbs:
            if b in visited or taken[b] == a:
                continue
            visited.add(b)
            a2 = taken[b]
            parts[a2].remove(b)
            taken[b] = a
            parts[a].append(b)
            if grab(a2, visited):
                return True
            parts[a].remove(b)
            taken[b] = a2
            parts[a2].append(b)
        return False

    for b in sorted(nbrs_of_b):
        seen: set[int] = set()
        if not place(b, seen):
            trapped = tuple(sorted({bb for a in seen for bb in parts[a]} | {b}))
            raise InfeasibleMatchingError(
                f"interior B-vertex {b} cannot be placed: {len(trapped)} B-vertices "
                f"compete for {d}*{len(seen)} slots on A-side {sorted(seen)}",
                "B", b, tuple(sorted(seen)), trapped,
            )
    for a in a_order:
        while len(parts[a]) < d:
            seen = set()
            if not grab(a, seen):
                blocked = tuple(sorted({taken[b] for b in seen if b in taken} | {a}))
                raise InfeasibleMatchingError(
                    f"A-vertex {a} cannot reach {d} partners: A-side {list(blocked)} "
                    f"confined to B-side {sorted(seen)}",
                    "A", a, blocked, tuple(sorted(seen)),
                )
    for a in a_order:
        parts[a].sort()
    return parts
