"""Finite Hall machinery, cross-checked against an independent flow oracle."""

from __future__ import annotations

import ast
import random
from collections import defaultdict, deque
from pathlib import Path

import pytest

from hallforest import HallWitness, InfeasibleMatchingError, double_graph, solve_relaxed
from hallforest.hall import _repair_solve

from conftest import bfs_tree_adjacency
from oracles import (
    FiniteInducedSubgraph,
    Matching,
    brute_force_matching,
    check_harem_condition,
    oracle_double_ball,
)


# -- independent feasibility oracle --------------------------------------------
#
# The relaxed contract (every a exactly d partners, interior b exactly one
# owner, other b at most one) is a degree-constrained subgraph problem. The
# oracle decides it with the textbook reduction of lower bounds to plain max
# flow, sharing no code with the augmenting solver under test.


def max_flow(residual: dict, s, t) -> int:
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, c in residual[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= aug
            residual[v][u] += aug
        flow += aug


def relaxed_feasible(a_order, nbrs_of_a, interior_b, d) -> bool:
    residual: dict = defaultdict(lambda: defaultdict(int))
    excess: dict = defaultdict(int)

    def arc(u, v, lo, hi):
        residual[u][v] += hi - lo
        excess[v] += lo
        excess[u] -= lo

    interior = set(interior_b)
    mentioned = sorted({b for a in a_order for b in nbrs_of_a[a]} | interior)
    for a in a_order:
        arc("S", ("a", a), d, d)
        for b in nbrs_of_a[a]:
            arc(("a", a), ("b", b), 0, 1)
    for b in mentioned:
        arc(("b", b), "T", 1 if b in interior else 0, 1)
    arc("T", "S", 0, 10**9)
    supply = 0
    for v, e in list(excess.items()):
        if e > 0:
            residual["SS"][v] += e
            supply += e
        elif e < 0:
            residual[v]["TT"] += -e
    return max_flow(residual, "SS", "TT") == supply


def contract_holds(parts, a_order, nbrs_of_a, interior_b, d) -> bool:
    used = [b for bs in parts.values() for b in bs]
    if len(used) != len(set(used)):
        return False
    if sorted(parts) != sorted(a_order):
        return False
    for a in a_order:
        if len(parts[a]) != d or not set(parts[a]) <= set(nbrs_of_a[a]):
            return False
    return set(interior_b) <= set(used)


# -- witnesses -------------------------------------------------------------------


def test_witness_is_zero_at_zero():
    h = HallWitness.identity()
    assert h(0) == 0
    assert h(5) == 5
    with pytest.raises(ValueError):
        h(-1)


# -- the harem condition -----------------------------------------------------------


def complete(n_a: int, n_b: int) -> FiniteInducedSubgraph:
    return FiniteInducedSubgraph.build(
        range(1, n_a + 1), range(1, n_b + 1),
        [(a, b) for a in range(1, n_a + 1) for b in range(1, n_b + 1)])


def test_harem_single_edge():
    assert check_harem_condition(complete(1, 1), 1).ok


def test_harem_violation_on_square_graph():
    res = check_harem_condition(complete(3, 3), 2)
    assert not res
    v = res.violation
    assert v.side == "A"
    assert v.subset == (1, 2)  # first violating subset in bitmask order
    assert v.neighborhood == (1, 2, 3)


def test_harem_star_at_k_three():
    star = FiniteInducedSubgraph.build([1], [1, 2, 3], [(1, 1), (1, 2), (1, 3)])
    assert check_harem_condition(star, 3).ok
    m = brute_force_matching(star, 3)
    assert m.pairs == ((1, 1), (1, 2), (1, 3))


def test_harem_b_side_violation():
    sub = FiniteInducedSubgraph.build([1], [1, 2], [(1, 1), (1, 2)])
    res = check_harem_condition(sub, 1)
    assert not res.ok
    assert res.violation.side == "B"
    assert res.violation.subset == (1, 2)
    assert res.violation.neighborhood == (1,)


def test_harem_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_harem_condition(complete(1, 1), 0)
    with pytest.raises(ValueError):
        check_harem_condition(complete(21, 1), 1)


# -- brute force -------------------------------------------------------------------


def test_brute_force_least_matching_pin():
    m = brute_force_matching(complete(2, 4), 2)
    assert m.pairs == ((1, 1), (1, 2), (2, 3), (2, 4))


def test_brute_force_needs_exact_count():
    assert brute_force_matching(complete(3, 3), 2) is None
    with pytest.raises(ValueError):
        brute_force_matching(complete(15, 15), 1)


def random_subgraph(rng: random.Random, n_a: int, n_b: int, p: float) -> FiniteInducedSubgraph:
    edges = [(a, b) for a in range(1, n_a + 1) for b in range(1, n_b + 1)
             if rng.random() < p]
    return FiniteInducedSubgraph.build(range(1, n_a + 1), range(1, n_b + 1), edges)


def test_brute_force_agrees_with_harem_check():
    rng = random.Random(41)
    # densities tuned so each shape sees both outcomes
    shapes = {1: (6, 6, 0.45), 2: (3, 6, 0.6), 3: (2, 6, 0.8)}
    found = {k: 0 for k in shapes}
    for k, (n_a, n_b, p) in shapes.items():
        for _ in range(120):
            sub = random_subgraph(rng, n_a, n_b, p)
            m = brute_force_matching(sub, k)
            cond = check_harem_condition(sub, k)
            assert (m is not None) == cond.ok
            if m is not None:
                found[k] += 1
                for a, b in m.pairs:
                    assert (a, b) in sub.edges
                assert all(len(m.a_partners(a)) == k for a in sub.a_vertices)
    assert all(5 < found[k] < 115 for k in shapes)  # both outcomes appear


# -- matchings ---------------------------------------------------------------------


def test_matching_rejects_duplicate_b():
    with pytest.raises(ValueError):
        Matching([(1, 1), (2, 1)])


def test_matching_roundtrip_and_views():
    m = Matching([(2, 3), (1, 1), (1, 2)])
    assert m.pairs == ((1, 1), (1, 2), (2, 3))
    assert m.a_partners(1) == (1, 2)
    assert m.b_owner(3) == 2
    assert m.b_owner(9) is None
    assert m.a_vertices() == (1, 2)
    assert Matching(m.pairs) == m


def test_matching_dot_marks_matched_edges(cli_artifact):
    # the CLI's matching.dot: A circles, B boxes, every matched edge in red
    dot = cli_artifact(6, ["match", "--d", 4, "--n", 6, "--format", "dot"], "matching.dot")
    assert dot.startswith("graph matching {")
    assert '"a1" [shape=circle];' in dot and '"b1" [shape=box];' in dot
    assert '"a1" -- "b2" [color=red, penwidth=2];' in dot
    edges = [line for line in dot.splitlines() if " -- " in line]
    assert len(edges) == 6 and all("[color=red, penwidth=2];" in e for e in edges)


# -- relaxed solving ---------------------------------------------------------------


def relaxed_call(a_order, nbrs, interior, d, center):
    """solve_relaxed's arguments for the instance (a_order, nbrs, interior, d),
    solved as the ball around center; the first six are _repair_solve's.

    nbrs gives each A-vertex's usable B-list. Its host section weaves in
    every number from 0 up to its largest entry that no list mentions. Those
    numbers are dead, in turn by a reservation and by a nonzero owner slot,
    so the solver has to skip both kinds. The owner array ends just below
    the largest mentioned number, which is live by the array's length.
    """
    mentioned = {b for bs in nbrs.values() for b in bs}
    sections = {a: sorted(set(bs) | {x for x in range(max(bs, default=0)) if x not in mentioned})
                for a, bs in nbrs.items()}
    nbrs_of_b = {b: [a for a in a_order if b in nbrs[a]] for b in sorted(interior)}
    dead = [x for x in range(max(mentioned, default=0)) if x not in mentioned]
    owner = [0] * max(mentioned, default=0)
    for x in dead[1::2]:
        owner[x] = 1
    return a_order, sections.__getitem__, nbrs_of_b, owner, set(dead[::2]), d, center


def test_solve_relaxed_star_takes_everything():
    parts = solve_relaxed(*relaxed_call([1], {1: [1, 2, 3]}, [1, 2, 3], 3, 1))
    assert parts == {1: [1, 2, 3]}


def test_solve_relaxed_reports_trapped_interior():
    with pytest.raises(InfeasibleMatchingError) as exc:
        solve_relaxed(*relaxed_call([1], {1: [1, 2, 3, 4]}, [1, 2, 3, 4], 3, 1))
    err = exc.value
    assert err.side == "B"
    assert err.stuck == 4
    assert err.a_set == (1,)
    assert err.b_set == (1, 2, 3, 4)
    assert not relaxed_feasible([1], {1: [1, 2, 3, 4]}, [1, 2, 3, 4], 3)


def test_solve_relaxed_reports_starved_a_side():
    nbrs = {1: [1, 2, 3, 4], 2: [1, 2, 3, 4]}
    with pytest.raises(InfeasibleMatchingError) as exc:
        solve_relaxed(*relaxed_call([1, 2], nbrs, [1, 2, 3, 4], 3, 1))
    err = exc.value
    assert err.side == "A"
    assert set(err.a_set) == {1, 2}
    assert set(err.b_set) == {1, 2, 3, 4}
    assert len(err.b_set) < 3 * len(err.a_set)  # a genuine counting obstruction
    assert not relaxed_feasible([1, 2], nbrs, [1, 2, 3, 4], 3)


def random_relaxed_instance(rng: random.Random):
    n_a = rng.randint(2, 5)
    d = rng.randint(2, 3)
    a_order = list(range(1, n_a + 1))
    pool = range(1, n_a * d + rng.randint(-1, 4) + 1)
    nbrs = {}
    for a in a_order:
        size = rng.randint(1, min(len(pool), d + 2))
        nbrs[a] = sorted(rng.sample(list(pool), size))
    mentioned = sorted({b for bs in nbrs.values() for b in bs})
    interior = [b for b in mentioned if rng.random() < 0.5]
    return a_order, nbrs, interior, d


def test_solve_relaxed_agrees_with_flow_oracle():
    # solve_relaxed returns only some lists, so the whole contract is checked on
    # the repair search's matching, which its lists must be part of
    rng = random.Random(23)
    feasible = infeasible = 0
    for _ in range(300):
        a_order, nbrs, interior, d = random_relaxed_instance(rng)
        expected = relaxed_feasible(a_order, nbrs, interior, d)
        call = relaxed_call(a_order, nbrs, interior, d, a_order[0])
        try:
            parts = solve_relaxed(*call)
        except InfeasibleMatchingError:
            assert not expected
            infeasible += 1
        else:
            assert expected
            full = _repair_solve(*call[:6])
            assert contract_holds(full, a_order, nbrs, interior, d)
            assert parts == {a: full[a] for a in parts}
            feasible += 1
    assert feasible > 30 and infeasible > 30


def test_solve_relaxed_is_deterministic():
    rng = random.Random(5)
    for _ in range(40):
        a_order, nbrs, interior, d = random_relaxed_instance(rng)
        try:
            first = solve_relaxed(*relaxed_call(a_order, nbrs, interior, d, a_order[-1]))
        except InfeasibleMatchingError:
            continue
        assert first == solve_relaxed(*relaxed_call(a_order, nbrs, interior, d, a_order[-1]))


def tree6_ball_matching(radius: int):
    """The oracle ball of that radius around a_1 in the tree6 double, d=4,
    matched: (a_order, each A-vertex's B-list, interior B-vertices, the
    repair search's matching of the whole ball as a Matching, which refuses
    a B-vertex owned twice). solve_relaxed's lists are checked to be part
    of that matching, and to be the lists of a_1 and the interior holders."""
    a_set, b_set, edges, boundary = oracle_double_ball(bfs_tree_adjacency(6, 40_000), 1, radius)
    nbrs = {a: [] for a in a_set}
    for a, b in edges:
        nbrs[a].append(b)
    interior = sorted(set(b_set) - set(boundary))
    call = relaxed_call(a_set, nbrs, interior, 4, 1)
    full = _repair_solve(*call[:6])
    holders = {a for a, bs in full.items() if a == 1 or set(bs) & set(interior)}
    assert solve_relaxed(*call) == {a: full[a] for a in holders}
    return a_set, nbrs, interior, Matching((a, b) for a, bs in full.items() for b in bs)


def test_boundary_relaxed_matching_on_tree_ball(tree6):
    host = double_graph(tree6)
    a_order, nbrs, interior, m = tree6_ball_matching(3)
    for a in a_order:
        assert len(m.a_partners(a)) == 4
        assert set(m.a_partners(a)) <= set(host.neighbors_a(a))
    owners = [m.b_owner(b) for b in interior]
    assert None not in owners
    assert relaxed_feasible(a_order, nbrs, interior, 4)


def test_boundary_relaxed_matching_on_wide_ball():
    # radius 5: 781 centers to fill, contract recount only (the flow oracle
    # is quadratic and adds nothing at this size)
    a_order, _, interior, m = tree6_ball_matching(5)
    assert len(a_order) == 781
    assert all(len(m.a_partners(a)) == 4 for a in a_order)
    assert all(m.b_owner(b) is not None for b in interior)


# -- the references stay independent -------------------------------------------------


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "hallforest"]
