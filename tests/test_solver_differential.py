"""solve_relaxed against a frozen copy of its augmenting-only form.

solve_relaxed runs a greedy pass before its augmenting repairs. That pass
must change nothing: on every instance it has to return the partners, or
raise the certificate, that the repairs alone gave. reference_solve_relaxed
is the solver as it was before the greedy pass, kept verbatim, with its
input shape of that time: every A-vertex's usable B-list and the interior.
Each call of solve_relaxed is translated into those inputs: on random
instances by test_hall.relaxed_call, on matcher balls by filtering each
host section with the matcher's liveness test at call time.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import pytest

import hallforest.matcher
from hallforest import (
    HallWitness,
    HaremMatcher,
    InfeasibleMatchingError,
    solve_relaxed,
)
from test_hall import random_relaxed_instance, relaxed_call


def reference_solve_relaxed(
    a_order: Sequence[int],
    nbrs_of_a: dict[int, Sequence[int]],
    interior_b: Iterable[int],
    d: int,
) -> dict[int, list[int]]:
    owner: dict[int, int] = {}
    parts: dict[int, list[int]] = {a: [] for a in a_order}
    nbrs_of_b: dict[int, list[int]] = {}
    for a in a_order:
        for b in nbrs_of_a[a]:
            nbrs_of_b.setdefault(b, []).append(a)

    def place(b: int, visited: set[int]) -> bool:
        nbs = nbrs_of_b.get(b, ())
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
        for b in nbrs_of_a[a]:
            if b not in owner and b not in visited:
                visited.add(b)
                owner[b] = a
                parts[a].append(b)
                return True
        for b in nbrs_of_a[a]:
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

    for b in sorted(interior_b):
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
                blocked = tuple(sorted({owner[b] for b in seen if b in owner} | {a}))
                raise InfeasibleMatchingError(
                    f"A-vertex {a} cannot reach {d} partners: A-side {list(blocked)} "
                    f"confined to B-side {sorted(seen)}",
                    "A", a, blocked, tuple(sorted(seen)),
                )
    for a in a_order:
        parts[a].sort()
    return parts


def outcome(solver, *args):
    """The partners a solver returns, or every field of the error it raises."""
    try:
        return "matched", solver(*args)
    except InfeasibleMatchingError as err:
        return "infeasible", err.side, err.stuck, err.a_set, err.b_set, str(err)


def test_greedy_first_agrees_on_random_instances():
    rng = random.Random(2718)
    kinds = {"matched": 0, "infeasible": 0}
    for _ in range(400):
        args = random_relaxed_instance(rng)
        got = outcome(solve_relaxed, *relaxed_call(*args))
        assert got == outcome(reference_solve_relaxed, *args), args
        kinds[got[0]] += 1
    assert kinds["matched"] > 30 and kinds["infeasible"] > 30


@pytest.mark.parametrize("space, steps", [
    ("tree6", 1500),
    ("tree7", 1500),
    ("t6k3", 1500),
])
def test_greedy_first_agrees_on_every_matcher_ball(host_of, monkeypatch, space, steps):
    balls = []

    def both(a_order, section, nbrs_of_b, live_b, d):
        got = outcome(solve_relaxed, a_order, section, nbrs_of_b, live_b, d)
        nbrs_of_a = {a: [b for b in section(a) if live_b(b)] for a in a_order}
        args = a_order, nbrs_of_a, list(nbrs_of_b), d
        assert got == outcome(reference_solve_relaxed, *args), args
        assert got[0] == "matched"
        balls.append(len(a_order))
        return got[1]

    monkeypatch.setattr(hallforest.matcher, "solve_relaxed", both)
    m = HaremMatcher(host_of(space), 4, HallWitness.identity())
    m.advance_to_step(steps)
    assert len(balls) >= steps
