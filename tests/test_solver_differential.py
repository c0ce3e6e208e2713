"""solve_relaxed against a frozen copy of its augmenting-only form.

solve_relaxed runs a greedy pass before its augmenting repairs. That pass
must change nothing: on every instance it has to return the partners, or
raise the certificate, that the repairs alone gave. It returns the lists of
the center and of the A-vertices that hold an interior B-vertex, which must
be exactly those of the reference's lists; _repair_solve, which returns every
list, must give all of the reference's. reference_solve_relaxed is the
solver as it was before the greedy pass, kept verbatim, with its input
shape of that time: every A-vertex's usable B-list and the interior. Each
call of solve_relaxed is translated into those inputs: on random instances
by test_hall.relaxed_call, on matcher balls by filtering each host section
with the matcher's liveness test at call time.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Iterable, Sequence

import pytest

import hallforest.hall
import hallforest.matcher
from hallforest import (
    HallWitness,
    HaremMatcher,
    InfeasibleMatchingError,
    double_graph,
    solve_relaxed,
)
from hallforest.hall import _repair_solve
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


def assert_agrees(got, call, args) -> None:
    """got is solve_relaxed's outcome on call, its seven arguments, and args is
    the instance in the reference's input shape. The repair search alone, on
    the whole ball, must give the reference's outcome: every list, or every
    certificate field. got must give the same certificate, or the
    reference's lists of exactly the center and the A-vertices that hold an
    interior B-vertex."""
    expected = outcome(reference_solve_relaxed, *args)
    assert outcome(_repair_solve, *call[:6]) == expected, args
    assert got[0] == expected[0], args
    if got[0] != "matched":
        assert got == expected, args
        return
    parts, center, interior = expected[1], call[6], call[2]
    holders = {a for a, bs in parts.items() if a == center or any(b in interior for b in bs)}
    assert set(got[1]) == holders, args
    for a, bs in got[1].items():
        assert bs == parts[a], args


def missed_at(monkeypatch) -> tuple[list, Callable]:
    """Record, per ball solve_relaxed hands to the repair search, the A-vertex
    whose section the greedy pass read last, where it missed; None for a
    miss in phase 1, which reads no section. Returns that list and traced,
    which wraps each instance's section so that its reads are seen."""
    misses, read = [], []

    def counted(*args):
        misses.append(read[-1] if read else None)
        read.append("repair")  # the repair search's own reads come after
        return _repair_solve(*args)

    def traced(section):
        def reading(a):
            read.append(a)
            return section(a)
        read.clear()
        return reading

    monkeypatch.setattr(hallforest.hall, "_repair_solve", counted)
    return misses, traced


def test_greedy_first_agrees_on_random_instances(monkeypatch):
    rng = random.Random(2718)
    centers = random.Random(314)
    kinds = {"matched": 0, "infeasible": 0, "repaired": 0, "repaired_unreturned": 0}
    misses, traced = missed_at(monkeypatch)
    for _ in range(1200):
        args = random_relaxed_instance(rng)
        call = relaxed_call(*args, centers.choice(args[0]))
        before = len(misses)
        got = outcome(solve_relaxed, call[0], traced(call[1]), *call[2:])
        assert_agrees(got, call, args)
        kinds[got[0]] += 1
        if len(misses) > before and got[0] == "matched":
            # the greedy pass missed, and the repair search matched the ball
            kinds["repaired"] += 1
            kinds["repaired_unreturned"] += misses[-1] not in (None, *got[1])
    assert kinds["matched"] > 30 and kinds["infeasible"] > 30 and kinds["repaired"] > 10, kinds
    assert kinds["repaired_unreturned"] >= 3, kinds


def test_greedy_miss_at_an_unreturned_vertex_is_repaired(monkeypatch):
    """The center a_1 fills first, with b_1 and b_2; a_2, whose list is not
    returned, then finds both taken. The repair search moves a_1 to b_3 and
    b_4, and the count-only pass must hand the ball over for that."""
    misses, traced = missed_at(monkeypatch)
    args = [1, 2], {1: [1, 2, 3, 4], 2: [1, 2]}, [], 2
    call = relaxed_call(*args, 1)
    got = outcome(solve_relaxed, call[0], traced(call[1]), *call[2:])
    assert got == ("matched", {1: [3, 4]})
    assert misses == [2]
    assert_agrees(got, call, args)


def install_differential(monkeypatch) -> list:
    """Route every ball the matcher solves through solve_relaxed and the reference.

    The reference's usable lists are filtered, at call time, by the liveness
    rule solve_relaxed reads off its owner and reserved arguments. Every
    ball must match. Returns a list that gets, per ball, the A-neighbours of
    its interior that the ball build left out of a_order: committed
    A-vertices and fan roots.
    """
    filtered = []

    def both(*call):
        a_order, section, nbrs_of_b, owner, reserved, d, _ = call
        got = outcome(solve_relaxed, *call)
        nbrs_of_a = {a: [b for b in section(a) if (b >= len(owner) or not owner[b]) and b not in reserved]
                     for a in a_order}
        args = a_order, nbrs_of_a, list(nbrs_of_b), d
        assert_agrees(got, call, args)
        assert got[0] == "matched"
        filtered.append({a for b in nbrs_of_b for a in section(b)} - set(a_order))
        return got[1]

    monkeypatch.setattr(hallforest.matcher, "solve_relaxed", both)
    return filtered


# Phase 2's fill counts and the sort of lists that mix both phases depend on d;
# T6xK3 is the host with reserved fan leaves in play, and the renumbered tree7
# the one whose balls need the repair search.
@pytest.mark.parametrize("space, d, steps, repairs", [
    ("tree6", 4, 1500, 0),
    ("tree7", 4, 1500, 0),
    ("t6k3", 4, 1500, 0),
    ("tree6", 3, 1500, 0),
    ("tree7", 5, 1500, 0),
    ("swapped7", 4, 1500, 3),
], ids=["tree6-1500", "tree7-1500", "t6k3-1500", "tree6-d3-1500", "tree7-d5-1500", "swapped7-1500"])
def test_greedy_first_agrees_on_every_matcher_ball(host_of, monkeypatch, space, d, steps, repairs):
    balls = install_differential(monkeypatch)
    misses, _ = missed_at(monkeypatch)
    m = HaremMatcher(host_of(space), d, HallWitness.identity())
    m.advance_to_step(steps)
    assert len(balls) >= steps
    assert len(misses) == repairs


def test_ball_build_leaves_a_restored_fan_root_out(tree7, monkeypatch):
    """The fan-root filter of the ball build, under the invariant mode.

    Cold runs never reach it: in 3,000 steps of T6xK3, tree6 or tree7, no
    fan root is an A-neighbour of a ball's interior. On the 20-step tree7
    checkpoint, a fan restored at 771, the grandchild of 22 through 129,
    puts the root in the next ball, around 22: the root lies in the section
    of the interior b_129. The ball leaves the root out, and the fan stays
    held through step 200.
    """
    host = double_graph(tree7)
    m = HaremMatcher(host, 4, HallWitness.identity())
    m.advance_to_step(20)
    cp = json.loads(m.checkpoint_json())
    cp["fans"] = [{"root": 771, "leaves": [4626, 4627, 4628]}]
    filtered = install_differential(monkeypatch)
    m = HaremMatcher.restore(host, HallWitness.identity(), cp, check=True)
    m.advance_to_step(21)
    assert 771 in filtered[0]
    m.advance_to_step(200)
    assert m.fans() == {771: (4626, 4627, 4628)}
