"""Acceptance suite: one test per criterion, each a single pass/fail line.

Criterion 6 (freeness of the permutation pair at word length 5 over the
first hundred points) decides every (word, point) pair from direction
labels within one move of the point. Walking a word letter by letter would
read labels four moves out, and each ray move multiplies the vertex number
by about 36, so length 5 lies far beyond any step budget. Split the word as
w = u.m.v, with |u| = floor(|w|/2), |v| <= 2 and a middle letter m only at
length 5 (the rightmost letter acts first). Because alpha and beta are
permutations, w(n) = n exactly when m(v(n)) = u^-1(n) (or v(n) = u^-1(n)
when there is no m). Both v(n) and u^-1(n) walk at most two moves from n,
so they read labels at most one move out. Every move goes to a forest
neighbor, and forest neighbors are exactly the points one of which is the
forest step of the other, so m(v(n)) can only be u^-1(n) when one of the two
steps to the other. That is decided from the forest step and the
classification alone: a climbing point (a root, or a root-ray point at even
height) steps to the root-ray point two heights up, so its climb is only
evaluated when the other point is classified there. Only a pair that the
forest relates would read the label two moves out; on a forest there is
none. The sweep is still guarded by an explicit step budget: when it runs
out the test fails with the exact word, point and steps spent, rather than
silently shrinking the claim.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations_with_replacement

import pytest

from hallforest import (
    EdgeLabeling,
    FiniteInducedSubgraph,
    ForestFunction,
    HallWitness,
    HaremMatcher,
    MatcherBudgetError,
    TreeEntourage,
    WobblingPair,
    brute_force_matching,
    check_expansion,
    check_harem_condition,
    cli,
    double_graph,
    reduced_words,
    verify_cycle_control,
    verify_forest,
)
from hallforest.forest import Classification
from hallforest.wobbling import DIRS, INVERSE

STEP_BUDGET = 25_000  # the full sweep forces 19,267 steps: about 25 s on a 2-core machine


def column_graph(n_a: int, columns: tuple[int, ...]) -> FiniteInducedSubgraph:
    """Bipartite graph from per-B-vertex neighborhood bitmasks over the A side."""
    edges = [(a + 1, j + 1) for j, col in enumerate(columns)
             for a in range(n_a) if col >> a & 1]
    return FiniteInducedSubgraph.build(
        range(1, n_a + 1), range(1, len(columns) + 1), edges)


def test_acceptance_1_finite_hall_equivalence():
    started = time.time()
    checked = 0
    # every bipartite shape with |A| <= 4, |B| <= 6, one representative per
    # B-relabeling class (both checks are invariant under relabeling B)
    for n_a in range(5):
        for n_b in range(7):
            for cols in combinations_with_replacement(range(1 << n_a), n_b):
                sub = column_graph(n_a, cols)
                for k in (1, 2, 3):
                    found = brute_force_matching(sub, k)
                    assert (found is not None) == check_harem_condition(sub, k).ok
                    checked += 1
    rng = random.Random(61)
    for _ in range(500):
        p = rng.uniform(0.3, 0.9)
        edges = [(a, b) for a in range(1, 7) for b in range(1, 13)
                 if rng.random() < p]
        sub = FiniteInducedSubgraph.build(range(1, 7), range(1, 13), edges)
        for k in (1, 2, 3):
            found = brute_force_matching(sub, k)
            assert (found is not None) == check_harem_condition(sub, k).ok
            checked += 1
    assert checked > 200_000
    assert time.time() - started < 60


def test_acceptance_2_matching_contract():
    started = time.time()
    matcher = HaremMatcher(double_graph(TreeEntourage(6)), 4, HallWitness.identity())
    matcher.advance_to_step(200)
    assert matcher.f(matcher.f(1)) == 1
    for n in range(1, 201):
        assert matcher.a_removed(n)
        assert matcher.b_removed(n)
    removed_a = matcher.removed_a_set()
    removed_b = matcher.removed_b_set()
    assert len(removed_b) == 3 * len(removed_a)
    for a in removed_a:
        parts = matcher.partners_of(a)
        assert len(parts) == 3
        for b in parts:
            assert matcher.graph.adjacent(a, b)
            assert matcher.owner_of(b) == a
    for b in removed_b:
        assert b in matcher.partners_of(matcher.owner_of(b))
    assert time.time() - started < 60


def test_acceptance_3_cycle_control():
    started = time.time()
    matcher = HaremMatcher(double_graph(TreeEntourage(6)), 4, HallWitness.identity())
    assert matcher.f(matcher.f(1)) == 1
    report = verify_cycle_control(matcher.f, 200)
    assert report.ok, report.violations
    assert set(report.periodic) | set(report.transient) == set(range(2, 201))
    for n, period in report.periodic.items():
        assert period <= n
    for n, (entry, loop) in report.transient.items():
        assert entry <= 2 * n and loop <= n
    assert time.time() - started < 60


def test_acceptance_4_forest():
    started = time.time()
    tree = TreeEntourage(6)
    forest = ForestFunction(tree, 3)
    rng = random.Random(4)
    for _ in range(200):
        size = rng.randint(1, 8)
        blob = {rng.randrange(1, 121)}
        while len(blob) < size:
            options = sorted({w for v in blob for w in tree.section(v)} - blob)
            blob.add(options[rng.randrange(len(options))])
        assert check_expansion(tree, blob, 5).ok
    report = verify_forest(forest, 300, preimage_upto=100)
    assert report.ok, report.violations[:5]
    for n in range(1, 301):
        assert forest.f_star(n) != n
    assert time.time() - started < 120


def test_acceptance_5_same_tree():
    started = time.time()
    forest = ForestFunction(TreeEntourage(6), 3)

    # independent component search: union-find over the plain f-edges of
    # every orbit reachable from 1..100
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for n in range(1, 101):
        x = n
        for _ in range(3 * n + 2):
            union(x, forest.f(x))
            x = forest.f(x)
    root_of = {n: forest.find_root(n) for n in range(1, 101)}
    for x in range(1, 101):
        assert forest.same_tree(x, x)
        for y in range(x + 1, 101):
            agree = root_of[x] == root_of[y]
            assert (find(x) == find(y)) == agree
            assert forest.same_tree(x, y) == agree == forest.same_tree(y, x)
    for x in (1, 4, 5):
        y = forest.f_star(x)
        z = forest.f_star(y)
        assert forest.same_tree(x, y) and forest.same_tree(y, z)
        assert forest.same_tree(x, z)
    assert time.time() - started < 60


def steps_to(forest, x: int, y: int) -> bool:
    """Whether f*(x) == y, without evaluating a climb that cannot land on y.

    A climbing x steps to the root-ray point two heights above it, so y is
    checked against that classification before the climb is evaluated.
    """
    here = forest.classify(x)
    if here.climbs and forest.classify(y) != Classification("root_ray", here.height + 2, here.root):
        return False
    return forest.f_star(x) == y


def forest_related(forest, x: int, y: int) -> bool:
    """Whether x and y are forest neighbors: one is the forest step of the other."""
    return steps_to(forest, x, y) or steps_to(forest, y, x)


def split_word(word: tuple[str, ...]) -> tuple[tuple[str, ...], str | None, tuple[str, ...]]:
    """word = u.m.v with |u| = floor(|word|/2), |v| <= 2, m only when |word| = 5."""
    cut = len(word) // 2
    rest = word[cut:]
    if len(rest) > 2:
        return word[:cut], rest[0], rest[1:]
    return word[:cut], None, rest


def fixes_by_halves(pair, word: tuple[str, ...], n: int) -> bool:
    """Whether word (length at most 5) fixes n, decided as m(v(n)) == u^-1(n)."""
    u, middle, v = split_word(word)
    here = pair.apply_word(v, n)
    target = pair.apply_word(tuple(INVERSE[t] for t in reversed(u)), n)
    if middle is None:
        return here == target
    # m(here) is a forest neighbor of here, so unless the forest relates
    # the two points there is no label two moves out to read
    return forest_related(pair.forest, here, target) and pair.move(middle, here) == target


def test_acceptance_6_wobbling_freeness():
    forest = ForestFunction(TreeEntourage(7), 4, step_limit=STEP_BUDGET)
    pair = WobblingPair(EdgeLabeling(forest))
    word, n = (), 0
    try:
        for n in range(1, 101):
            image = pair.alpha(n)
            assert image in forest.forest_neighbors(n)
            assert pair.alpha_inv(image) == n
            image = pair.beta(n)
            assert image in forest.forest_neighbors(n)
            assert pair.beta_inv(image) == n
            assert sorted(pair.labeling.directions(n)) == list(forest.forest_neighbors(n))
        for n in range(1, 101):
            word = ()
            # every edge at n is undone by its inverse token
            for token in DIRS:
                assert pair.move(INVERSE[token], pair.move(token, n)) == n, (n, token)
            # every move out of the radius-1 ball reaches a forest neighbor,
            # and every climb in it lands two heights up its root ray
            for p in (n,) + pair.labeling.directions(n):
                here = forest.classify(p)
                if here.climbs:
                    assert forest.classify(forest.f_star(p)) == Classification(
                        "root_ray", here.height + 2, here.root), p
                for token in DIRS:
                    assert forest_related(forest, p, pair.move(token, p)), (p, token)
            for length in range(1, 6):
                for word in reduced_words(length):
                    fixed = fixes_by_halves(pair, word, n)
                    # the direct walk reads labels length-1 moves out; at
                    # 1..4 those two moves out come at no extra steps
                    if length <= 2 or (length == 3 and n <= 4):
                        assert fixed == (pair.apply_word(word, n) == n), (word, n)
                    if n <= 4:  # the split without the forest shortcut
                        u, middle, v = split_word(word)
                        undo_u = tuple(INVERSE[t] for t in reversed(u))
                        whole_v = v if middle is None else (middle,) + v
                        assert fixed == (pair.apply_word(whole_v, n) == pair.apply_word(undo_u, n)), (word, n)
                    assert not fixed, (word, n)
    except MatcherBudgetError:
        pytest.fail(
            f"step budget exhausted at word {''.join(word)}, point {n}: "
            f"{forest.matcher.step} matcher steps consumed of {STEP_BUDGET}"
        )


def test_acceptance_7_determinism_replay(tmp_path):
    started = time.time()
    space = tmp_path / "descriptor.json"
    assert cli.main(["gen-tree", "--r", "7", "--out", str(tmp_path)]) == 0
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main([
            "verify", "--space", str(space), "--d", "4", "--n", "40",
            "--word-len", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    first, second = outs
    for artifact in ("report.json", "checkpoint.json"):
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes()
    report = json.loads((first / "report.json").read_text())
    assert report["ok"] is True
    assert time.time() - started < 120
