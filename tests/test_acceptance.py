"""Acceptance suite: one test per criterion, each a single pass/fail line.

Criterion 6 decides each (word, point) pair with the library decider,
WobblingPair.fixes, whose docstring gives the proof; the sweep runs under an
explicit step budget and fails with the exact word, point and steps spent.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations_with_replacement

import pytest

from hallforest import (
    EdgeLabeling,
    ForestFunction,
    HallWitness,
    HaremMatcher,
    MatcherBudgetError,
    TreeEntourage,
    WobblingPair,
    check_expansion,
    cli,
    double_graph,
    reduced_words,
    verify_cycle_control,
    verify_forest,
)
from hallforest.forest import Classification
from hallforest.wobbling import DIRS, INVERSE

from oracles import (
    FiniteInducedSubgraph,
    brute_force_matching,
    check_harem_condition,
    plain_first_repeat,
)

STEP_BUDGET = 25_000  # the full sweep forces 19,267 steps, which its last assertion pins


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
    assert report["ok"], report["violations"]
    walks = {n: plain_first_repeat(matcher.f, n, 3 * n + 2) for n in range(2, 201)}
    assert report["periodic"] == sum(entry == 0 for entry, _ in walks.values())
    assert report["periodic"] + report["transient"] == 199
    for n, (entry, period) in walks.items():
        assert entry <= 2 * n and period <= n
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
    report = verify_forest(forest, 300)
    assert report["ok"], report["violations"][:5]
    for n in range(1, 301):
        assert forest.f_star(n) != n
    for n in range(1, 101):
        assert len(forest.f_star_preimages(n)) == 2
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
    root_of = {n: forest.classify(n).root for n in range(1, 101)}
    for x in range(1, 101):
        for y in range(x + 1, 101):
            assert (find(x) == find(y)) == (root_of[x] == root_of[y])
    for x in (1, 4, 5):
        y = forest.f_star(x)
        z = forest.f_star(y)
        assert root_of[x] == forest.classify(y).root == forest.classify(z).root
    assert time.time() - started < 60


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
                    q = pair.move(token, p)
                    assert forest.steps_to(p, q) or forest.steps_to(q, p), (p, token)
            for length in range(1, 6):
                for word in reduced_words(length):
                    fixed = pair.fixes(word, n)
                    # the direct walk reads labels length-1 moves out; at
                    # 1..4 those two moves out come at no extra steps
                    if length <= 2 or (length == 3 and n <= 4):
                        assert fixed == (pair.apply_word(word, n) == n), (word, n)
                    if n <= 4:  # the split without the forest shortcut
                        cut = len(word) // 2
                        undo_u = tuple(INVERSE[t] for t in reversed(word[:cut]))
                        assert fixed == (pair.apply_word(word[cut:], n) == pair.apply_word(undo_u, n)), (word, n)
                    assert not fixed, (word, n)
        # what classify and the labeling ask of the matcher, pinned
        assert forest.matcher.step == 19_267
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
