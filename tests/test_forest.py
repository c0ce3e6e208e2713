"""Entourages, the forest step, classification, and forest verification."""

from __future__ import annotations

import json
import random
import sys
import tracemalloc

import pytest

from hallforest import (
    ForestFunction,
    TreeEntourage,
    check_expansion,
    double_graph,
    verify_forest,
)
from hallforest.matcher import CycleControlError

from conftest import ExplicitEntourage, bfs_tree_adjacency
from oracles import FullWalkClassifier


@pytest.fixture(scope="module")
def forest63(tree6) -> ForestFunction:
    return ForestFunction(tree6, 3)


# -- entourages -------------------------------------------------------------------


def test_tree_entourage_matches_bfs_oracle(tree7):
    adj = bfs_tree_adjacency(7, 4000)
    for v in range(1, 81):
        assert tree7.neighbors(v) == tuple(sorted(adj[v]))
        assert tree7.section(v) == tuple(sorted(adj[v] + [v]))
        assert [w for w in range(1, 401) if tree7.related(v, w)] == sorted(w for w in adj[v] if w <= 400)


@pytest.mark.parametrize("r", range(3, 11))
def test_tree_neighbors_match_bfs_oracle_at_every_degree(r):
    """neighbors(v) against the BFS lists on v = 1..600: the root, the root's
    children 2..r+1 and every deeper vertex, each case with its own arithmetic."""
    adj = bfs_tree_adjacency(r, 600 * (r - 1) + r + 2)  # every v <= 600 keeps all its children
    tree = TreeEntourage(r)
    assert [tree.neighbors(v) for v in range(1, 601)] == [tuple(sorted(adj[v])) for v in range(1, 601)]


def test_tree_entourage_section_pins(tree6):
    assert tree6.section(1) == (1, 2, 3, 4, 5, 6, 7)
    assert tree6.section(2) == (1, 2, 8, 9, 10, 11, 12)
    assert tree6.related(2, 8) and tree6.related(8, 2)
    assert not tree6.related(2, 13)


@pytest.mark.parametrize("r", [3, 7])
def test_tree_entourage_refuses_numbers_below_one(r):
    # the arithmetic would answer: on r = 7, neighbors(0) was (1, -3, -2, -1, 0, 1, 2),
    # so 0 was related to itself and to 1, and expanded 2-fold as a subset
    tree = TreeEntourage(r)
    for v in (0, -1):
        for read in (tree.neighbors, tree.section, lambda v: tree.related(v, 1),
                     lambda v: check_expansion(tree, [v], 2)):
            with pytest.raises(ValueError, match="vertices are positive"):
                read(v)


def test_tree_entourage_rejects_small_degree():
    with pytest.raises(ValueError):
        TreeEntourage(2)
    # 7.0 constructed, and its first section read failed inside range
    for r in (7.0, 7.5):
        with pytest.raises(TypeError, match="regular tree degree must be an int"):
            TreeEntourage(r)


@pytest.mark.parametrize("r", range(3, 13))
def test_tree_deep_sections_match_arithmetic(r):
    """Each section from v = r+1 on is an ascending tuple of r ints: the parent
    (v - r - 2) // (r - 1) + 2, then the r - 1 children from r + 2 + (v - 2)(r - 1)."""
    tree = TreeEntourage(r)
    rng = random.Random(r)
    for v in [*range(r + 1, r + 41), *(rng.randint(r + 2, 2 ** 31 // r) for _ in range(200))]:
        first = r + 2 + (v - 2) * (r - 1)
        section = tree.neighbors(v)
        assert section == ((v - r - 2) // (r - 1) + 2, *range(first, first + r - 1))
        assert type(section) is tuple and all(type(w) is int for w in section)
        assert list(section) == sorted(set(section)) and len(section) == r


def test_tree_entourage_constructs_in_constant_memory():
    # the section function is generated on the first neighbors access, not here
    tracemalloc.start()
    try:
        TreeEntourage(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize("r", [3, 7, 12])
def test_a_deep_host_read_is_two_calls(r):
    """neighbors_a, then the generated section function: no method frame between."""
    host = double_graph(TreeEntourage(r))
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        host.neighbors_a(10 ** 6)
    finally:
        sys.setprofile(None)
    assert calls == ["neighbors_a", "neighbors"]


def test_tree_section_function_is_generated_once_per_tree():
    tree = TreeEntourage(7)
    assert double_graph(tree).section is tree.neighbors
    assert tree.neighbors is tree.neighbors
    assert TreeEntourage(7).neighbors is not tree.neighbors
    # the shallow arm still builds its children from a range, which refuses a float
    with pytest.raises(TypeError):
        tree.neighbors(2.5)


def test_explicit_entourage_is_symmetric_and_reflexive():
    ent = ExplicitEntourage([(1, 2), (2, 3)])
    assert ent.section(2) == (1, 2, 3)
    assert ent.related(3, 2) and 2 in ent.section(2)
    assert ent.section(9) == (9,)  # untouched points are isolated loops


def test_strip_diagonal(tree6):
    # neighbors and related are the entourage with its diagonal stripped
    ent = ExplicitEntourage([(1, 2), (2, 3)])
    assert ent.neighbors(2) == (1, 3)
    assert not ent.related(2, 2) and 2 in ent.section(2)
    assert ent.related(2, 1) and not ent.related(1, 3)
    assert tree6.neighbors(2) == (1, 8, 9, 10, 11, 12)
    assert not tree6.related(2, 2) and tree6.related(2, 8) and tree6.related(8, 2)


def test_double_graph_of_explicit_entourage():
    host = double_graph(ExplicitEntourage([(1, 2), (2, 3)]))
    assert host.neighbors_a(2) == (1, 3)
    assert host.neighbors_b(2) == (1, 3)
    assert not host.adjacent(2, 2)


def test_check_expansion_pins(tree6):
    assert check_expansion(tree6, [1], 7).ok
    assert not check_expansion(tree6, [1], 8).ok
    res = check_expansion(tree6, tree6.section(1), 5)
    assert res.ok and res.subset_size == 7 and res.image_size == 37 and res.required == 35
    assert not check_expansion(tree6, tree6.section(1), 6).ok
    lonely = ExplicitEntourage([(5, 5)])
    assert not check_expansion(lonely, [5], 2).ok


# -- classification ----------------------------------------------------------------


def test_forest_requires_d_at_least_three(tree6):
    with pytest.raises(ValueError):
        ForestFunction(tree6, 2)


PERIODIC = ("root", "image", "cycle")


def test_periodicity_and_transient_preimages(forest63):
    f = forest63
    assert f.classify(1).kind == "root" and f.classify(2).kind == "image"
    assert f.classify(3).kind not in PERIODIC and f.classify(8).kind not in PERIODIC
    assert f.f_preimages(1) == (2, 3)
    assert f.least_transient_preimage(1) == 3
    assert f.least_transient_preimage(3) == 13
    assert f.least_transient_preimage(2) == 8
    assert f.least_transient_preimage(8) == 38


def per_preimage_ltp(forest):
    """The least transient preimage as first defined: a bounded first-repeat
    walk from each preimage, periodic when the orbit returns to its start."""

    def first_repeat(f, n, limit):
        orbit = [n]
        index = {n: 0}
        x = n
        for _ in range(limit):
            x = f(x)
            first = index.get(x)
            if first is not None:
                return orbit, first
            index[x] = len(orbit)
            orbit.append(x)
        return orbit, None

    def is_periodic(n):
        return first_repeat(forest.f, n, max(2, n))[1] == 0

    def least_transient_preimage(n):
        options = [p for p in forest.f_preimages(n) if not is_periodic(p)]
        if not options:
            raise RuntimeError(f"{n} has no transient preimage; needs d >= 3")
        return min(options)

    return least_transient_preimage


@pytest.mark.parametrize("host, d, steps", [("tree7", 4, 548), ("tree6", 3, 437)])
def test_least_transient_preimage_against_per_preimage_walks(request, host, d, steps):
    """Walking n's own orbit once gives the per-preimage answer, and forces
    the same matcher steps, on cold forests."""
    entourage = request.getfixturevalue(host)
    fast, plain = ForestFunction(entourage, d), ForestFunction(entourage, d)
    answers = []
    for forest, ltp in ((fast, fast.least_transient_preimage), (plain, per_preimage_ltp(plain))):
        queries = list(range(1, 301))
        queries += [p for a in range(1, 101) for p in forest.f_preimages(a)]
        answers.append([ltp(n) for n in queries])
    assert len(answers[0]) == 300 + 100 * (d - 1)
    assert answers[0] == answers[1]
    assert fast.matcher.step == plain.matcher.step == steps


def test_classification_pins(forest63):
    f = forest63
    assert f.classify(1).kind == "root"
    info = f.classify(2)
    assert (info.kind, info.height, info.root) == ("image", 0, 1)
    assert f.classify(3).kind == "root_ray" and f.classify(3).height == 1
    assert f.classify(13).kind == "root_ray" and f.classify(13).height == 2
    assert f.classify(8).kind == "image_ray" and f.classify(8).height == 1
    assert f.classify(38).kind == "image_ray" and f.classify(38).height == 2
    kinds = {f.classify(u).kind for u in range(1, 41)}
    assert "plain" in kinds
    for u in range(1, 41):
        info = f.classify(u)
        if info.kind == "plain":
            assert f.f_star(u) == f.f(u)


def test_classify_root_against_plain_walk(forest63):
    for n in range(1, 61):
        seen = {n: 0}
        x = n
        while True:
            x = forest63.f(x)
            if x in seen:
                entry = seen[x]
                break
            seen[x] = len(seen)
        cycle = [v for v, i in seen.items() if i >= entry]
        assert forest63.classify(n).root == min(cycle)
        assert entry <= 2 * n and len(cycle) <= max(2, n)


def test_classify_raises_on_an_orbit_that_breaks_cycle_control(tree6):
    # cycle control puts every first repeat within 3n + 2 steps, entered
    # within 2n; an f that breaks either bound raises instead of spinning
    # forever or classifying the orbit
    broken = [
        (lambda x: x + 1, "no repeat within 17 steps", 22),  # never repeats
        (lambda x: min(x + 1, 20), "entry 15, period 1", 21),  # repeats in time, enters late
    ]
    for f, message, stop in broken:
        forest = ForestFunction(tree6, 3)
        calls = []
        forest.f = lambda x, f=f: calls.append(x) or f(x)
        with pytest.raises(RuntimeError, match=f"cycle control broken at 5: {message}"):
            forest.classify(5)
        assert calls == list(range(5, stop))


def test_classify_reads_f_once_per_classified_point(tree7):
    # each walk stops at the first classified point, whose tail and period are
    # remembered; walking every orbit down to its cycle read f 822 times here
    forest = ForestFunction(tree7, 4)
    calls = []
    forest.f = lambda x, f=forest.f: calls.append(x) or f(x)
    for u in range(1, 301):
        forest.classify(u)
    assert len(calls) == len(set(calls)) == len(forest._class) == 428
    assert forest.matcher.step == 273


@pytest.mark.parametrize("host, d", [("tree6", 3), ("tree7", 4), ("swapped7", 4)])
@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_classify_against_full_walks(request, host, d, order):
    """The memo's answers and forced steps equal those of a classifier that
    walks every orbit in full and remembers nothing, query by query."""
    entourage = request.getfixturevalue(host)
    forest, other = ForestFunction(entourage, d), ForestFunction(entourage, d)
    oracle = FullWalkClassifier(other.f, other.f_preimages)
    points = list(range(1, 201))
    if order == "shuffled":
        random.Random(26).shuffle(points)
    for n in points:
        assert forest.classify(n) == oracle.classify(n), n
        assert forest.least_transient_preimage(n) == oracle.least_transient_preimage(n), n
        assert forest.matcher.step == other.matcher.step, n


def test_classify_against_full_walks_on_a_three_cycle(tree6):
    # the trees' f-cycles all have period 2, where a cycle point's predecessor is
    # also its successor; here 3 -> 4 -> 5 -> 3 tells them apart, 1 <-> 2 is the
    # other cycle, and every n >= 6 maps to n // 2 - 2
    cycles = {1: 2, 2: 1, 3: 4, 4: 5, 5: 3}

    def f(n):
        return cycles[n] if n < 6 else n // 2 - 2

    def preimages(n):
        return tuple(sorted([p for p, q in cycles.items() if q == n] + [2 * n + 4, 2 * n + 5]))

    forest = ForestFunction(tree6, 3)
    forest.f, forest.f_preimages = f, preimages
    oracle = FullWalkClassifier(f, preimages)
    points = list(range(1, 61))
    random.Random(26).shuffle(points)
    for n in points:
        assert forest.classify(n) == oracle.classify(n), n
        assert forest.least_transient_preimage(n) == oracle.least_transient_preimage(n), n
    assert [forest.classify(n).kind for n in (3, 4, 5)] == ["root", "image", "cycle"]
    assert forest.least_transient_preimage(3) == 10


@pytest.mark.parametrize("start, message", [
    (5, "entry 15, period 2"), (4, "no repeat within 14 steps")])
def test_a_walk_through_a_classified_point_checks_the_whole_orbit(tree6, start, message):
    # 8 -> 9 -> ... -> 20 <-> 21 is within 8's bounds, so 8 is classified; from 4
    # or 5 the same orbit enters too late, and the walk that stops at 8 must say
    # what a walk on to the cycle says. The preimages only feed the ray checks.
    def f(x):
        return 20 if x == 21 else x + 1

    cold = ForestFunction(tree6, 3)
    cold.f = f
    with pytest.raises(CycleControlError) as walked:
        cold.classify(start)
    warm = ForestFunction(tree6, 3)
    calls = []
    warm.f = lambda x: calls.append(x) or f(x)
    warm.f_preimages = lambda x: (x - 1, 3 * x)
    assert warm.classify(8) == ("root_ray", 12, 20)
    calls.clear()
    expected = f"^cycle control broken at {start}: {message}$"
    with pytest.raises(CycleControlError, match=expected) as known:
        warm.classify(start)
    assert str(known.value) == str(walked.value)
    assert calls == list(range(start, 8))


@pytest.mark.parametrize("cycle, bad, message", [
    # period 3, which 3 and 4 allow and 2 does not
    ({2: 3, 3: 4, 4: 2}, 2, "entry 0, period 3"),
    # 20 -> 3 -> 4 -> ... -> 10 <-> 11 enters within 2 * 20 steps, but from 3 it takes 7 > 6
    ({20: 3, **{v: v + 1 for v in range(3, 10)}, 10: 11, 11: 10}, 3, "entry 7, period 2"),
], ids=["periodic", "transient"])
def test_cycle_control_is_checked_at_every_point_a_walk_classifies(tree6, cycle, bad, message):
    # the walk from the other point classifies bad too, so whichever point is
    # asked first, both queries raise what the cold walk from bad raises, and
    # neither point is remembered
    other = max(cycle)
    for order in ((bad, other), (other, bad)):
        forest = ForestFunction(tree6, 3)
        forest.f, forest.f_preimages = cycle.__getitem__, lambda x: (x - 1, 3 * x)
        for u in order:
            with pytest.raises(CycleControlError, match=f"^cycle control broken at {bad}: {message}$"):
                forest.classify(u)
        assert bad not in forest._class and other not in forest._class


def test_roots_prefix_pin(forest63):
    assert forest63.roots_up_to(17) == (1, 4, 5, 6, 7, 9, 10, 11, 12, 15, 16, 17)
    for root in forest63.roots_up_to(30):
        assert forest63.classify(root).kind == "root"


# -- rays -------------------------------------------------------------------------


def ray(forest: ForestFunction, anchor: int, length: int) -> list[int]:
    """The first length points of the ray of least transient preimages above anchor."""
    points = [anchor]
    for _ in range(length):
        points.append(forest.least_transient_preimage(points[-1]))
    return points[1:]


def test_ray_regression_pins(forest63):
    f = forest63
    assert ray(f, 1, 3) == [3, 13, 63]
    assert ray(f, f.f(1), 3) == [8, 38, 188]


def test_rays_step_down_and_stay_transient(forest63):
    f = forest63
    for anchor in (1, f.f(1)):
        prev = anchor
        for x in ray(f, anchor, 4):
            assert f.f(x) == prev
            assert f.classify(x).kind not in PERIODIC
            # least-ness among the transient preimages of the level below
            options = [p for p in f.f_preimages(prev) if f.classify(p).kind not in PERIODIC]
            assert x == min(options)
            prev = x


def test_rays_are_disjoint_and_injective(forest63):
    f = forest63
    points = ray(f, 1, 4) + ray(f, f.f(1), 4)
    assert len(set(points)) == 8


# -- the forest step ---------------------------------------------------------------


def test_forest_step_case_pins(forest63):
    f = forest63
    up = f.least_transient_preimage
    assert f.f_star(1) == up(up(1)) == 13        # root climbs two
    assert f.f_star(2) == f.f(2) == 1            # the image follows f
    assert f.f_star(3) == f.f(3) == 1            # odd ray height 1 follows f
    assert f.f_star(13) == up(up(13)) == 313     # even ray heights climb
    assert f.f_star(63) == f.f(f.f(63)) == 3     # odd ray heights drop two
    assert f.f_star(8) == f.f(8) == 2            # image ray height 1 follows f
    assert f.f_star(38) == f.f(f.f(38)) == 2     # deeper image ray drops two
    assert [f.f_star(n) for n in range(1, 13)] == [
        13, 1, 1, 93, 118, 143, 168, 2, 218, 243, 268, 293]


def test_forest_step_paths_stay_in_entourage(forest63):
    f = forest63
    assert f.f_star_path(1) == (1, 3, 13)
    assert f.f_star_path(2) == (2, 1)
    assert f.f_star_path(13) == (13, 63, 313)
    assert f.f_star_path(63) == (63, 13, 3)
    assert f.f_star_path(38) == (38, 8, 2)
    for n in range(1, 61):
        hops = f.f_star_path(n)
        assert hops[0] == n and hops[-1] == f.f_star(n)
        assert len(hops) in (2, 3)
        for p, q in zip(hops, hops[1:]):
            assert f.entourage.related(p, q)


def test_forest_preimages_and_neighbors(forest63):
    f = forest63
    assert f.f_star_preimages(2) == (8, 38)
    assert f.forest_neighbors(1) == (2, 3, 13)
    for x in range(1, 41):
        pre = f.f_star_preimages(x)
        assert len(pre) == 2
        assert all(f.f_star(u) == x for u in pre)
        assert x not in f.forest_neighbors(x)
    for n in range(1, 51):
        assert n in f.f_star_preimages(f.f_star(n))


def filtered_candidates(forest: ForestFunction, x: int) -> tuple[int, ...]:
    """f_star_preimages(x) as it was computed before each f-preimage was decided on
    its classification: every candidate goes through f_star."""
    info = forest.classify(x)
    cands = {u for u in forest.f_preimages(x) if not forest.classify(u).climbs}
    up = forest.least_transient_preimage
    if info.kind == "root_ray" and info.height % 2 == 0:
        cands.add(forest.f(forest.f(x)))
    elif info.kind in ("root_ray", "image_ray", "image"):
        cands.add(up(up(x)))
    return tuple(sorted(u for u in cands if forest.f_star(u) == x))


@pytest.mark.parametrize("host, d", [("tree6", 3), ("tree7", 4), ("swapped7", 4)])
def test_f_star_preimages_against_filtered_candidates(request, host, d):
    # the same answers, and no step forced that the f_star filter would not force
    entourage = request.getfixturevalue(host)
    forest, other = ForestFunction(entourage, d), ForestFunction(entourage, d)
    for x in range(1, 201):
        assert forest.f_star_preimages(x) == filtered_candidates(other, x), x
        assert forest.matcher.step == other.matcher.step, x


def test_forest_neighbors_are_mutual(forest63):
    f = forest63
    pairs = [(x, y) for x in range(1, 13) for y in f.forest_neighbors(x)]
    pairs += [(1, 13), (13, 313), (3, 63), (8, 38)]
    for x, y in pairs:
        assert x in f.forest_neighbors(y) or f.f_star(x) != y  # mutual when adjacent
        if f.f_star(x) == y or f.f_star(y) == x:
            assert x in f.forest_neighbors(y) and y in f.forest_neighbors(x)


def test_climbing_preimages_never_map_back(tree7):
    # the lemma f_star_preimages drops them by: f*(u) = up(up(u)) = x would
    # put the transient up(u) on the f-cycle x -> up(u) -> u -> x
    f = ForestFunction(tree7, 4)
    climbing = [(x, u) for x in range(1, 101) for u in f.f_preimages(x)
                if f.classify(u).climbs]
    kinds = {f.classify(u).kind for _, u in climbing}
    assert len(climbing) == 19 and kinds == {"root", "root_ray"}
    for x, u in climbing:
        assert f.f_star(u) != x
        assert u not in f.f_star_preimages(x)


def test_forest_neighbors_do_not_climb_past_the_answer(tree7):
    # 474 steps settle these neighbors; evaluating the climb of the root
    # ray preimage 519 of 87 would force 2842
    f = ForestFunction(tree7, 4, step_limit=1000)
    assert f.forest_neighbors(87) == (3, 520, 521, 3111)


def test_orbit_of_one_climbs(forest63):
    f = forest63
    orbit = [1]
    for _ in range(3):
        orbit.append(f.f_star(orbit[-1]))
    assert orbit == [1, 13, 313, 7813]
    heights = [f.classify(x).height for x in orbit[1:]]
    assert heights == sorted(heights) and len(set(heights)) == 3


# -- tree structure ----------------------------------------------------------------


def test_parent_and_path_to_root(forest63):
    f = forest63
    assert f.parent(1) is None
    assert f.parent(2) == 1
    assert f.parent(3) == 1
    assert f.parent(13) == 1
    assert f.parent(63) == 3
    assert f.parent(8) == 2
    assert f.parent(38) == 2
    assert f.path_to_root(63) == [63, 3, 1]
    for u in range(1, 41):
        path = f.path_to_root(u)
        assert path[0] == u and f.classify(path[-1]).kind == "root"
        for child, parent in zip(path, path[1:]):
            assert parent in f.forest_neighbors(child)


def test_same_tree_is_an_equivalence(forest63):
    f = forest63
    root_of = {v: f.classify(v).root for v in range(1, 31)}
    for x in range(1, 31):
        assert f.classify(f.f(x)).root == root_of[x]
    assert f.classify(63).root == root_of[1]
    assert root_of[4] != root_of[1]


# -- verification ------------------------------------------------------------------


def test_verify_forest_passes(forest63):
    report = verify_forest(forest63, 80)
    assert report["ok"], report["violations"]
    assert report["upto"] == 80 and report["preimage_upto"] == 60


def test_verify_forest_passes_on_wider_degree(tree7):
    forest = ForestFunction(tree7, 4)
    report = verify_forest(forest, 30)
    assert report["ok"], report["violations"]


def test_verify_forest_flags_fixed_points(tree6):
    forest = ForestFunction(tree6, 3)
    forest._star[5] = 5  # poison the memo on a throwaway instance
    report = verify_forest(forest, 5)
    assert not report["ok"]
    assert any("fixes 5" in v for v in report["violations"])


# -- the forest artifact the CLI writes ------------------------------------------


def test_forest_json_shape(cli_artifact):
    payload = json.loads(cli_artifact(6, ["forest", "--d", 3, "--n", 12], "forest.json"))
    assert set(payload) == {"edges", "roots"}
    assert payload["edges"][:3] == [[1, 13], [2, 1], [3, 1]]
    assert len(payload["edges"]) == 12
    assert payload["roots"] == [1, 4, 5, 6, 7, 9, 10, 11, 12]


def test_forest_dot_shape(cli_artifact):
    dot = cli_artifact(6, ["forest", "--d", 3, "--n", 8, "--format", "dot"], "forest.dot")
    assert dot.startswith("digraph")
    assert '"1" [shape=doublecircle];' in dot
    assert '"1" -> "13";' in dot
    assert '"8" -> "2";' in dot
