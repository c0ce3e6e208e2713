"""Incremental matcher: invariants, cycle control, checkpoints, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hallforest
from hallforest import (
    HallWitness,
    HaremMatcher,
    InfeasibleMatchingError,
    MatcherBudgetError,
    SymmetricDoubleGraph,
    TreeEntourage,
    double_graph,
    is_A_reflected,
    verify_cycle_control,
)

from oracles import grouping_restore, plain_first_repeat


def fresh(entourage, d, **kw):
    return HaremMatcher(double_graph(entourage), d, HallWitness.identity(), **kw)


@pytest.fixture(scope="module")
def m80(tree6):
    m = fresh(tree6, 4)
    m.advance_to_step(80)
    return m


# -- construction ----------------------------------------------------------------


def test_initial_state(tree6):
    m = fresh(tree6, 4)
    assert m.step == 0
    assert m.fans() == {}
    assert m.owner_of(1) == 0
    assert m.partners_of(1) == ()
    assert not m.a_removed(1) and not m.b_removed(1)


@pytest.mark.parametrize("query", ["owner_of", "partners_of", "a_removed", "b_removed",
                                   "f", "preimages"])
def test_state_queries_refuse_numbers_below_one(tree7, query):
    """The state arrays are indexed by number, and a negative index would read them
    from the far end (at step 50 on tree7 d=4, owner_of(-1) would give 327, and
    a_removed(-1) and b_removed(-1) True). Every query refuses 0 and -1 instead."""
    m = fresh(tree7, 4)
    m.advance_to_step(50)
    for v in (0, -1):
        with pytest.raises(ValueError, match="vertices are positive"):
            getattr(m, query)(v)
    assert m.step == 50


def test_rejects_small_d(tree6):
    with pytest.raises(ValueError):
        fresh(tree6, 2)
    # a float d would fail only later, on the first step's slot arithmetic
    for d in (4.0, 4.5):
        with pytest.raises(TypeError, match="d must be an int"):
            fresh(tree6, d)


def test_rejects_diagonal_host():
    host = SymmetricDoubleGraph(lambda v: tuple(range(max(1, v - 3), v + 4)))
    with pytest.raises(ValueError, match="itself"):
        HaremMatcher(host, 3, HallWitness.identity())


def test_rejects_asymmetric_host():
    host = SymmetricDoubleGraph(lambda v: tuple(range(v + 1, v + 8)))
    with pytest.raises(ValueError, match="symmetric"):
        HaremMatcher(host, 3, HallWitness.identity())


def test_rejects_low_degree_host():
    ring = SymmetricDoubleGraph(lambda v: tuple(sorted({(v % 6) + 1, ((v - 2) % 6) + 1})))
    with pytest.raises(ValueError, match="degree"):
        HaremMatcher(ring, 3, HallWitness.identity())


def tree3_cycle(m: int) -> SymmetricDoubleGraph:
    """Bipartite host of T3 x C_m, degree 5.

    The vertex (t, i), with t a tree3 vertex and i in 0..m-1, is the number
    m(t-1) + i + 1; it is related to (s, i) for every tree neighbor s of t
    and to (t, i+1) and (t, i-1), mod m.
    """
    tree = TreeEntourage(3)

    def section(v: int) -> tuple[int, ...]:
        t, i = divmod(v - 1, m)
        layer = {m * (s - 1) + i + 1 for s in tree.neighbors(t + 1)}
        fiber = {m * t + (i + j) % m + 1 for j in (1, -1)}
        return tuple(sorted(layer | fiber))

    return SymmetricDoubleGraph(section)


@pytest.mark.parametrize("m, d, stuck, a_set, b_set, message", [
    (4, 4, 6, (1, 3, 6), (2, 4, 5, 7),
     "A-vertex 6 cannot reach 4 partners: A-side [1, 3, 6] confined to B-side [2, 4, 5, 7]"),
    (3, 3, 9, (1, 2, 3, 5, 6, 8, 9), tuple(range(1, 10)),
     "A-vertex 9 cannot reach 3 partners: A-side [1, 2, 3, 5, 6, 8, 9] "
     "confined to B-side [1, 2, 3, 4, 5, 6, 7, 8, 9]"),
])
def test_under_expanding_host_fails_with_the_balls_cut(m, d, stuck, a_set, b_set, message):
    # degree 5 clears the singleton check, but {t, t'} x C_m has too few
    # neighbors for d partners each, and the first ball already runs into it
    matcher = HaremMatcher(tree3_cycle(m), d, HallWitness.identity())
    with pytest.raises(InfeasibleMatchingError) as exc:
        matcher.run_step()
    err = exc.value
    assert (err.side, err.stuck, err.a_set, err.b_set, str(err)) == ("A", stuck, a_set, b_set, message)
    assert matcher.step == 0


# -- the anchor 2-cycle ------------------------------------------------------------


def test_one_and_its_partner_swap(tree6, tree7):
    for ent, d in ((tree6, 4), (tree6, 3), (tree7, 4)):
        m = fresh(ent, d)
        assert m.f(m.f(1)) == 1


# -- bookkeeping under many steps ----------------------------------------------------


def test_state_recount_after_eighty_steps(m80):
    d1 = m80.d - 1
    removed_a = m80.removed_a_set()
    removed_b = m80.removed_b_set()
    assert len(removed_b) == d1 * len(removed_a)
    for a in removed_a:
        parts = m80.partners_of(a)
        assert len(parts) == d1 and len(set(parts)) == d1
        for b in parts:
            assert m80.owner_of(b) == a
            assert m80.graph.adjacent(a, b)
    for b in removed_b:
        assert b in m80.partners_of(m80.owner_of(b))
    # reserved fans live strictly in the remaining host
    for root, leaves in m80.fans().items():
        assert root not in removed_a
        assert not set(leaves) & removed_b


def test_preimages_match_owner_scan(m80):
    scan: dict[int, list[int]] = {}
    for b in sorted(m80.removed_b_set()):
        scan.setdefault(m80.owner_of(b), []).append(b)
    for a in range(1, 21):
        assert m80.preimages(a) == tuple(scan[a])


def test_progress_bound_both_copies(tree6):
    m = fresh(tree6, 4)
    for n in range(1, 61):
        m.advance_to_step(n)
        for v in range(1, n + 1):
            assert m.a_removed(v), (n, v)
            assert m.b_removed(v), (n, v)


def test_fan_count_and_reflectedness_per_step(tree6):
    m = fresh(tree6, 4)
    host = m.graph
    for _ in range(60):
        m.run_step()
        assert len(m.fans()) <= m.step
        assert is_A_reflected(host, 40, m.removed_a_set(), m.removed_b_set())


# -- cycle control ----------------------------------------------------------------


def test_cycle_control_on_tree_host(m80):
    report = verify_cycle_control(m80.f, 60)
    assert report["ok"]
    walks = {n: plain_first_repeat(m80.f, n, 3 * n + 2) for n in range(2, 61)}
    assert report["periodic"] == sum(k == 0 for k, _ in walks.values())
    assert report["periodic"] + report["transient"] == 59
    for n, (k, loop) in walks.items():
        if k == 0:
            assert loop <= max(2, n)
        else:
            # entry within 2n - 1: one inside the bound verify_cycle_control enforces
            assert k <= 2 * n - 1 and 1 <= loop <= n


def test_cycle_control_flags_bad_function():
    report = verify_cycle_control(lambda n: n, 5)  # every point is a fixed point...
    assert report["ok"]  # ...which is period 1, within every bound
    shifted = verify_cycle_control(lambda n: n + 1, 5)  # never repeats
    assert not shifted["ok"]
    assert any("no repeat" in v for v in shifted["violations"])


def connected_subsets(section, seeds, max_size):
    frontier = {frozenset((s,)) for s in seeds}
    out = set(frontier)
    for _ in range(max_size - 1):
        grown = set()
        for sub in frontier:
            for v in sub:
                for w in section(v):
                    if w not in sub:
                        grown.add(sub | {w})
        out |= grown
        frontier = grown
    return out


def test_identity_witness_is_justified_on_tree(tree6):
    # the identity witness promises |N(X)| - (d-1)|X| >= |X|; on the 6-regular
    # tree every finite X in fact has |N(X)| >= 5|X| + 1
    host = double_graph(tree6)
    for sub in connected_subsets(host.neighbors_a, range(1, 25), 4):
        hood = set()
        for v in sub:
            hood.update(host.neighbors_a(v))
        assert len(hood) >= 5 * len(sub) + 1


# -- budget ------------------------------------------------------------------------


def test_step_budget_guards_lazy_queries(tree6):
    m = fresh(tree6, 4, step_limit=3)
    with pytest.raises(MatcherBudgetError):
        m.f(50)
    assert m.step == 3
    m.step_limit = None
    assert m.f(50) > 0  # the same matcher finishes once the budget lifts


def test_budget_error_names_the_query_that_ran_out(tree6):
    m = fresh(tree6, 4, step_limit=3)
    for query, vertex, read in (("f", 50, m.f), ("preimages", 40, m.preimages),
                                ("advance_to_step", 9, m.advance_to_step)):
        with pytest.raises(MatcherBudgetError) as exc:
            read(vertex)
        err = exc.value
        assert (err.query, err.vertex, err.steps) == (query, vertex, 3)
        assert str(err) == f"step budget exhausted after 3 steps, at {query}({vertex})"
    assert m.step == 3


def test_step_budget_and_target_must_be_ints(tree6):
    """A budget of -3 ran out "at step 0", and 2.5 as a budget or a target ran 3 steps."""
    cp = json.loads(fresh(tree6, 4).checkpoint_json())
    for limit, error in ((-3, ValueError), (2.5, TypeError), (3.0, TypeError), (True, TypeError)):
        with pytest.raises(error, match="step_limit"):
            fresh(tree6, 4, step_limit=limit)
        with pytest.raises(error, match="step_limit"):
            HaremMatcher.restore(double_graph(tree6), HallWitness.identity(), cp, step_limit=limit)
    m = fresh(tree6, 4, step_limit=0)
    for target in (2.5, 3.0):
        with pytest.raises(TypeError, match="step must be an int"):
            m.advance_to_step(target)
    assert m.step == 0


# -- checkpointing -----------------------------------------------------------------


def test_checkpoint_shape(m80):
    cp = m80.checkpoint()
    assert set(cp) == {"d", "step", "committed", "removed_a", "removed_b", "fans"}
    assert cp["d"] == 4 and cp["step"] == 80
    assert cp["removed_a"] == sorted(cp["removed_a"])
    assert cp["removed_b"] == sorted(b for _, b in cp["committed"])
    assert sorted({a for a, _ in cp["committed"]}) == cp["removed_a"]
    for fan in cp["fans"]:
        assert set(fan) == {"root", "leaves"}
    assert json.loads(m80.checkpoint_json()) == cp


# restore's cursor starts at step + 1: at step 100 on tree7 the retired numbers
# run on to 111, and at step 6 on T6xK3 a fan is live
@pytest.mark.parametrize("space, stop, end",
                         [("tree6", 40, 80), ("tree7", 100, 300), ("t6k3", 6, 200)],
                         ids=["tree6", "tree7", "t6k3"])
def test_restore_resumes_bit_exact(host_of, space, stop, end):
    host = host_of(space)
    straight = HaremMatcher(host, 4, HallWitness.identity())
    straight.advance_to_step(end)
    stopped = HaremMatcher(host, 4, HallWitness.identity())
    stopped.advance_to_step(stop)
    resumed = HaremMatcher.restore(host, HallWitness.identity(), json.loads(stopped.checkpoint_json()))
    resumed.advance_to_step(end)
    assert resumed.checkpoint_json() == straight.checkpoint_json()


def test_restore_rejects_corrupt_checkpoints(tree6, tree7, t6k3):
    m = fresh(tree6, 4)
    m.advance_to_step(10)
    cp = m.checkpoint()
    broken = dict(cp, committed=cp["committed"][1:])
    with pytest.raises(ValueError):
        HaremMatcher.restore(double_graph(tree6), HallWitness.identity(), broken)
    # numbers below 1 index the state arrays from the wrong end, and a
    # negative step count is no step count
    empty = {"d": 4, "step": 1, "committed": [], "removed_a": [], "removed_b": [], "fans": []}
    below_one = [
        dict(empty, committed=[[1, -1], [1, 2], [1, 3]], removed_a=[1], removed_b=[-1, 2, 3]),
        dict(empty, committed=[[0, 2], [0, 3], [0, 4]], removed_a=[0], removed_b=[2, 3, 4]),
        dict(cp, step=-5),
    ]
    for bad in below_one:
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            HaremMatcher.restore(double_graph(tree6), HallWitness.identity(), bad)
    # fans: at step 6 on T6xK3 the one live fan is 8 -> (38, 41, 44)
    m = HaremMatcher(t6k3, 4, HallWitness.identity())
    m.advance_to_step(6)
    cp = m.checkpoint()
    assert cp["fans"] == [{"root": 8, "leaves": [38, 41, 44]}]
    assert 2 in cp["removed_b"] and 7 in cp["removed_a"]
    bad_fans = [
        [{"root": 8, "leaves": [2, 41, 44]}],    # leaf already committed
        [{"root": 7, "leaves": [38, 41, 44]}],   # root already retired
        [{"root": 8, "leaves": [38]}],           # one leaf, not d - 1
        [{"root": 8, "leaves": [38, 38, 41]}],   # a leaf twice
        [{"root": 8, "leaves": [38, 41, 44]}, {"root": 8, "leaves": [47, 50, 53]}],  # root twice
        [{"root": 8, "leaves": [38, 41, 44]}, {"root": 9, "leaves": [44, 50, 53]}],  # leaf shared
        [{"root": -2, "leaves": [38, 41, 44]}],  # root below 1
        [{"root": 8, "leaves": [-38, 41, 44]}],  # leaf below 1
    ]
    for fans in bad_fans:
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            HaremMatcher.restore(t6k3, HallWitness.identity(), dict(cp, fans=fans))
    resumed = HaremMatcher.restore(t6k3, HallWitness.identity(), cp)
    assert resumed.checkpoint() == cp
    # a fan leaf that is no host edge of its root would later be committed
    # to it: on tree7 the section of 2 is (1, 9, ..., 14)
    host = double_graph(tree7)
    empty = dict(empty, step=0)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        HaremMatcher.restore(host, HallWitness.identity(),
                             dict(empty, fans=[{"root": 2, "leaves": [900, 901, 902]}]))
    # committed pairs are not looked up on restore; the invariant mode refuses
    # a non-edge as it commits it
    non_edges = dict(empty, committed=[[1, 500], [1, 501], [1, 502]],
                     removed_a=[1], removed_b=[500, 501, 502])
    with pytest.raises(AssertionError):
        HaremMatcher.restore(host, HallWitness.identity(), non_edges, check=True)
    # a missing key or a value of the wrong type is corrupt too, not a
    # KeyError or TypeError from deep inside
    m = fresh(tree7, 4)
    m.advance_to_step(20)
    cp = m.checkpoint()
    pairs = cp["committed"]
    assert pairs[:4] == [[1, 2], [1, 3], [1, 4], [2, 1]]
    as_text = [[str(a), str(b)] for a, b in pairs]
    # a_2's first partner 1 replaced by 2, which a_1 already holds
    twice = [[2, 2]] + pairs[:3] + pairs[4:]
    assert [27, 5] in pairs and 5 in cp["removed_a"] and 161 not in cp["removed_b"]
    mirror = sorted([27, 161] if pair == [27, 5] else pair for pair in pairs)
    wrong_shapes = [
        {key: value for key, value in cp.items() if key != "fans"},
        dict(cp, fans=[{"root": 30}]),
        dict(cp, d="4"),
        dict(cp, d=4.0),
        dict(empty, d=4.0),
        dict(empty, d=4.5),
        dict(cp, committed=as_text, removed_a=sorted({a for a, _ in as_text}),
             removed_b=sorted(b for _, b in as_text)),
        dict(cp, fans=[{"root": "30", "leaves": ["180", "181", "182"]}]),
        dict(cp, committed=5),
        list(cp.items()),
        dict(cp, committed=[[1, 2, 3]] + pairs[1:]),
        dict(cp, committed=[[1]] + pairs[1:]),
        # JSON true equals 1: as a_1 in its first pair or a later one, as b_1, as the step
        dict(cp, committed=[[True, 2]] + pairs[1:]),
        dict(cp, committed=pairs[:1] + [[True, 3]] + pairs[2:]),
        dict(cp, committed=pairs[:3] + [[2, True]] + pairs[4:]),
        dict(cp, step=True),
        dict(cp, committed=twice, removed_b=sorted(b for _, b in twice)),
        # the mirror rule: a_5 is retired, and moving a_27's partner 5 to its
        # live neighbor 161 leaves b_5 free
        dict(cp, committed=mirror, removed_b=sorted(b for _, b in mirror)),
        # float fan leaves past the state arrays are never read from a slot
        dict(cp, fans=[{"root": 5000, "leaves": [29997.0, 29998.0, 29999.0]}]),
    ]
    for bad in wrong_shapes:
        for check in (False, True):
            with pytest.raises(ValueError, match="corrupt checkpoint"):
                HaremMatcher.restore(host, HallWitness.identity(), bad, check=check)


def test_restore_refuses_pairs_out_of_the_writers_order(tree7):
    # restore reads the pairs in the writer's order, a ascending and each a's d-1
    # partners ascending, and names the first pair that leaves it; the grouping
    # reference accepted the pairs in any order
    host = double_graph(tree7)
    m = fresh(tree7, 4)
    m.advance_to_step(20)
    cp = json.loads(m.checkpoint_json())
    pairs = cp["committed"]
    assert pairs[:4] == [[1, 2], [1, 3], [1, 4], [2, 1]] and pairs[-1] == [117, 700]
    assert [27, 5] in pairs and cp["removed_a"][-1] == 117

    def derived(committed):
        return dict(cp, committed=committed, removed_a=sorted({a for a, _ in committed}),
                    removed_b=sorted(b for _, b in committed))

    swapped = dict(cp, committed=[pairs[3]] + pairs[1:3] + [pairs[0]] + pairs[4:])
    assert grouping_restore(HaremMatcher, host, HallWitness.identity(), swapped).checkpoint() == cp
    cases = [
        (swapped, r"at \[1, 3\]"),                                # a_2's pair before a_1's
        (derived(pairs[:3] + [[1, 5]] + pairs[3:]), r"at \[1, 5\]"),  # a fourth partner of a_1
        (derived(pairs[:-1]), "at their end"),                   # a_117 with two partners
        (dict(cp, removed_a=[a for a in cp["removed_a"] if a != 27]), "removed_a or removed_b disagrees"),
        # the arrays end at the lists' last numbers, so a_117's slots lie past them
        (dict(cp, removed_a=cp["removed_a"][:-1]), "IndexError"),
    ]
    for bad, where in cases:
        for check in (False, True):
            with pytest.raises(ValueError, match=f"^corrupt checkpoint: .*{where}"):
                HaremMatcher.restore(host, HallWitness.identity(), bad, check=check)


def test_restore_refuses_a_step_that_has_not_retired_its_numbers(tree7):
    # each step retires the least live A-vertex, so step s has retired 1..s;
    # 20 steps on tree7 retired 1..21 and then 27
    host = double_graph(tree7)
    m = HaremMatcher(host, 4, HallWitness.identity())
    m.advance_to_step(20)
    cp = m.checkpoint()
    assert cp["removed_a"][19:22] == [20, 21, 27] and len(cp["removed_a"]) == 32
    for step in (22, 33, 1_000_000):
        with pytest.raises(ValueError, match=f"corrupt checkpoint: step {step} has not retired"):
            HaremMatcher.restore(host, HallWitness.identity(), dict(cp, step=step))
    assert HaremMatcher.restore(host, HallWitness.identity(), cp).f(200) == m.f(200)


def test_check_mode_guards_the_fan_ledger(tree7):
    # the ledger's rules hold with the invariant mode off too, since restore
    # reserves the fans a checkpoint names: a second fan over a live one, or
    # over committed or reserved leaves, would strand the first fan's leaves
    # and fail later in _take_fan
    for check in (False, True):
        m = HaremMatcher(double_graph(tree7), 4, HallWitness.identity(), check=check)
        m.advance_to_step(1)
        m._reserve_fan(5, (27, 28, 29))
        assert m.partners_of(1) == (2, 3, 4) and m.partners_of(2) == (1, 9, 10)
        for root, leaves in [(5, (30, 31, 32)),       # root holds a fan
                             (6, (1, 33, 34)),        # leaf committed to a_2
                             (159, (27, 951, 952)),   # leaf reserved for 5
                             (2, (11, 12, 13)),       # root retired
                             (6, (33, 34)),           # two leaves, not d - 1
                             (6, (33, 34, 39))]:      # 39 is outside the section of 6
            with pytest.raises(AssertionError, match="breaks the fan ledger"):
                m._reserve_fan(root, leaves)
        assert m.fans() == {5: (27, 28, 29)}


def owner_scan(m: HaremMatcher) -> dict:
    """The whole-state readers as a scan over every slot of the state arrays."""
    d1 = m.d - 1
    committed = sorted((m._owner[b], b) for b in range(1, len(m._owner)) if m._owner[b] != 0)
    return {
        "committed": [[a, b] for a, b in committed],
        "removed_a": [a for a in range(1, len(m._parts) // d1) if m._parts[a * d1] != 0],
        "removed_b": [b for b in range(1, len(m._owner)) if m._owner[b] != 0],
    }


@pytest.mark.parametrize("space, steps", [("tree7", (0, 1, 100, 2000)), ("t6k3", (6, 2000))],
                         ids=["tree7", "t6k3"])
def test_whole_state_readers_match_a_slot_scan(host_of, space, steps):
    host = host_of(space)
    m = HaremMatcher(host, 4, HallWitness.identity())
    for n in steps:
        m.advance_to_step(n)
        scan = owner_scan(m)
        cp = m.checkpoint()
        assert {key: cp[key] for key in scan} == scan
        assert m.removed_a_set() == frozenset(scan["removed_a"])
        assert m.removed_b_set() == frozenset(scan["removed_b"])
        if (space, n) == ("t6k3", 6):
            assert cp["fans"] == [{"root": 8, "leaves": [38, 41, 44]}]
        text = m.checkpoint_json()
        for check in (False, True):
            back = HaremMatcher.restore(host, HallWitness.identity(), json.loads(text), check=check)
            assert back.checkpoint_json() == text
            # run_step skips retired numbers from the cursor on, which starts past 1..step
            assert back._cursor == n + 1


def reference_checkpoint(m: HaremMatcher) -> dict:
    """checkpoint() as it was built from per-pair lists before checkpoint_json
    wrote its text straight off the state arrays; a frozen reference."""
    d1 = m.d - 1
    retired = list(itertools.compress(itertools.count(1), m._parts[d1::d1]))
    committed = [[a, b] for a in retired for b in m._parts[a * d1:a * d1 + d1]]
    return {
        "d": m.d,
        "step": m.step,
        "committed": committed,
        "removed_a": retired,
        "removed_b": sorted([b for _, b in committed]),
        "fans": [{"root": root, "leaves": list(m._fans[root])} for root in sorted(m._fans)],
    }


# the checkpoint pins are all at d=4 and hold no live fan; these cases add
# other d and, on T6xK3, one live fan each
WRITER_CASES = [("tree7", 4, (0, 1, 2000)), ("tree6", 3, (500,)), ("tree7", 5, (500,)),
                ("t6k3", 4, (6, 1000))]


@pytest.mark.parametrize("space, d, steps", WRITER_CASES,
                         ids=[f"{space}-d{d}" for space, d, _ in WRITER_CASES])
def test_checkpoint_json_is_json_dumps_of_the_reference(host_of, space, d, steps):
    m = HaremMatcher(host_of(space), d, HallWitness.identity())
    for n in steps:
        m.advance_to_step(n)
        if space == "t6k3":
            assert len(m.fans()) == 1
        reference = json.dumps(reference_checkpoint(m), sort_keys=True, separators=(",", ":")) + "\n"
        assert m.checkpoint_json() == reference


def test_checkpoint_json_peak_memory_is_bounded_by_its_text(tree7):
    m = fresh(tree7, 4)
    m.advance_to_step(5000)
    tracemalloc.start()
    try:
        text = m.checkpoint_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def run_python(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this checkout's hallforest."""
    src = str(Path(hallforest.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True)


def test_check_mode_refuses_non_edges_under_python_O():
    # python -O strips assert statements; the invariant mode must not go with them
    script = (
        "from hallforest import HallWitness, HaremMatcher, TreeEntourage, double_graph\n"
        "cp = {'d': 4, 'step': 1, 'committed': [[1, 500], [1, 501], [1, 502]],\n"
        "      'removed_a': [1], 'removed_b': [500, 501, 502], 'fans': []}\n"
        "m = HaremMatcher.restore(double_graph(TreeEntourage(7)), HallWitness.identity(), cp, check=True)\n"
        "print(m.partners_of(1))\n")
    run = run_python(script, "-O")
    assert run.returncode != 0, run.stdout
    assert "AssertionError" in run.stderr and "breaks the matching invariants" in run.stderr


def test_restore_refuses_numbers_from_2_to_the_31_before_growing():
    # array("i") holds no 2^31, and growing the state arrays to it first would
    # ask for over 8 GB. The child runs under a 2 GB address-space cap, so a
    # restore that grows first fails there with MemoryError, not ValueError.
    script = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 2 * 10**9 if hard == resource.RLIM_INFINITY else min(2 * 10**9, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from hallforest import HallWitness, HaremMatcher, TreeEntourage, double_graph\n"
        "host, big = double_graph(TreeEntourage(7)), 2 ** 31\n"
        "empty = {'d': 4, 'step': 1, 'committed': [], 'removed_a': [], 'removed_b': [], 'fans': []}\n"
        "for bad in [dict(empty, committed=[[1, 2], [1, 3], [1, big]], removed_a=[1], removed_b=[2, 3, big]),\n"
        "            dict(empty, committed=[[big, 2], [big, 3], [big, 4]], removed_a=[big], removed_b=[2, 3, 4]),\n"
        "            dict(empty, fans=[{'root': big, 'leaves': [5, 6, 7]}]),\n"
        "            dict(empty, fans=[{'root': 2, 'leaves': [9, 10, big]}])]:\n"
        "    for check in (False, True):\n"
        "        try:\n"
        "            HaremMatcher.restore(host, HallWitness.identity(), bad, check=check)\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n")
    run = run_python(script)
    assert run.returncode == 0, run.stderr
    refusals = run.stdout.splitlines()
    assert len(refusals) == 8
    assert all(r == "corrupt checkpoint: vertex number 2147483648 is not in 1..2^31-1" for r in refusals)


def test_host_check_comes_before_any_allocation(tmp_path):
    # d = 300,000,000 is far past any tree7 degree. State sized by d before the
    # host check would ask for gigabytes, so under the child's 1 GB address-space
    # cap both refusals would end in MemoryError instead.
    (tmp_path / "descriptor.json").write_text('{"kind": "regular_tree", "r": 7}')
    script = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 10**9 if hard == resource.RLIM_INFINITY else min(10**9, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from hallforest import HallWitness, HaremMatcher, TreeEntourage, double_graph\n"
        "from hallforest.cli import main\n"
        "cp = {'d': 300000000, 'step': 0, 'committed': [], 'removed_a': [], 'removed_b': [], 'fans': []}\n"
        "try:\n"
        "    HaremMatcher.restore(double_graph(TreeEntourage(7)), HallWitness.identity(), cp)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        f"main(['match', '--space', {str(tmp_path / 'descriptor.json')!r}, '--d', '300000000',\n"
        f"      '--out', {str(tmp_path)!r}])\n")
    run = run_python(script)
    assert run.returncode == 2, run.stderr
    assert run.stdout.startswith("A-vertex 1 has degree 7 < 300000001;")
    assert "A-vertex 1 has degree 7 < 300000001;" in run.stderr
    assert "MemoryError" not in run.stderr


def test_close_cycle_consumes_fans_on_its_chain(tree7):
    """The chain's fan branches, and the balls' fan-root filter, from fans
    restored at step 0 on tree7.

    At d=4 the cursor 1 commits to (2, 3, 4), so the chain starts with
    target 1. A fan rooted at the tree neighbor 5 of 1, with leaf 1, is
    consumed by the chain, which goes on with target 5 and center 27, the
    fan's least other leaf. A second fan rooted at 27 makes the center a fan
    root: it takes the target plus its two lowest leaves instead of its ball
    partners.

    Fans holding b_2, b_3 and b_4 as leaves make a_1 commit to (5, 6, 7).
    Then the fan at 5 is consumed with b_5 already committed, and the chain
    stops there: going on, it would look for b_5's owner in a ball, where a
    committed b_5 never is. At d=5 the center 2 is a fan root of four leaves
    and takes the target plus its d-2 = 3 lowest; taking two, d=4's count,
    would commit too few partners.

    A fan rooted at 3 keeps a_3 out of the chain's ball around 2, whose
    interior holds b_1, until step 3 commits a_3 to its leaves. Were a_3 in
    that ball, the ball would match it to b_1 and the chain would reserve it
    a second fan of other leaves, over the first.
    """
    host = double_graph(tree7)
    first = {"root": 5, "leaves": [1, 27, 28]}
    blockers = [{"root": 9, "leaves": [2, 51, 52]}, {"root": 15, "leaves": [3, 87, 88]},
                {"root": 21, "leaves": [4, 123, 124]}]
    cases = [
        (4, [first], 1, {1: (2, 3, 4), 5: (1, 27, 28), 27: (5, 159, 160)}),
        (4, [first, {"root": 27, "leaves": [160, 161, 162]}], 1,
         {1: (2, 3, 4), 5: (1, 27, 28), 27: (5, 160, 161)}),
        (4, blockers + [first], 1, {1: (5, 6, 7), 5: (1, 27, 28)}),
        (5, [{"root": 2, "leaves": [9, 10, 11, 12]}], 1, {1: (2, 3, 4, 5), 2: (1, 9, 10, 11)}),
        (4, [{"root": 3, "leaves": [15, 16, 17]}], 3,
         {1: (2, 3, 4), 2: (1, 9, 10), 3: (15, 16, 17), 4: (21, 22, 23)}),
    ]
    for d, fans, steps, commits in cases:
        cp = {"d": d, "step": 0, "committed": [], "removed_a": [], "removed_b": [], "fans": fans}
        m = HaremMatcher.restore(host, HallWitness.identity(), cp, check=True)
        m.advance_to_step(steps)
        assert {a: m.partners_of(a) for a in m.removed_a_set()} == commits
        # a fan is held until its root commits
        assert m.fans() == {f["root"]: tuple(f["leaves"]) for f in fans if f["root"] not in commits}
        m.advance_to_step(201)  # and the invariant asserts hold from there on


def test_close_cycle_keeps_a_target_that_is_the_centers_largest_partner(swapped7):
    """The chain's mine[1:] drop, under the invariant mode, d=4.

    On tree7 a chain's target is always below the rest of its center's
    section. Here the tree vertices 267..269, children of 45, are numbered
    5..7, and a fan 8 -> (1, 45, 46) is restored at step 0. a_1 commits to
    (2, 3, 4); the chain consumes the fan and goes on with target 8 and
    center 45, whose ball gives it (5, 6, 7, 8). It keeps the target 8, its
    largest partner, and drops 5 (taking mine[:3] would leave b_8 uncommitted).
    """
    host = double_graph(swapped7)
    cp = {"d": 4, "step": 0, "committed": [], "removed_a": [], "removed_b": [],
          "fans": [{"root": 8, "leaves": [1, 45, 46]}]}
    m = HaremMatcher.restore(host, HallWitness.identity(), cp, check=True)
    m.advance_to_step(1)
    assert {a: m.partners_of(a) for a in m.removed_a_set()} == {1: (2, 3, 4), 8: (1, 45, 46),
                                                                45: (6, 7, 8)}
    assert m.fans() == {}
    m.advance_to_step(201)  # and the invariant asserts hold from there on


def test_two_runs_are_byte_identical(tree6):
    a = fresh(tree6, 4)
    b = fresh(tree6, 4)
    a.advance_to_step(60)
    b.advance_to_step(60)
    assert a.checkpoint_json() == b.checkpoint_json()


# -- output identity ----------------------------------------------------------------

# sha256 of checkpoint_json() for a cold d=4 matcher; a change to the stepping
# path that moves these changes the construction's output
PINNED_CHECKPOINTS = [
    ("tree6", 1000, "af9b9cc3e7d6f355ad836709cd57853b1928c25e0f7cf5fb01f370632dbaa749"),
    ("t6k3", 2000, "d94545258a786239d4fa6f99d983111b246e56bb6c7ff34b6fdd56a21d10d309"),
    # the benchmark's step_tree7 gate (perfbench/expected.json)
    ("tree7", 2500, "c718d44ae22f1a88c8f4619c1fa049752554266269360302ec827729c9ef287c"),
]


@pytest.mark.parametrize("space, steps, digest", PINNED_CHECKPOINTS,
                         ids=[f"{space}@{steps}" for space, steps, _ in PINNED_CHECKPOINTS])
def test_checkpoint_bytes_are_pinned(host_of, space, steps, digest):
    m = HaremMatcher(host_of(space), 4, HallWitness.identity())
    m.advance_to_step(steps)
    assert hashlib.sha256(m.checkpoint_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("space", ["tree7", "t6k3"])
def test_check_mode_runs_the_same_construction(host_of, space):
    host = host_of(space)
    plain = HaremMatcher(host, 4, HallWitness.identity())
    plain.advance_to_step(2000)
    checked = HaremMatcher(host, 4, HallWitness.identity(), check=True)
    created, consumed = set(), set()
    while checked.step < 2000:
        before = checked.fans()
        checked.advance_to_step(checked.step + 1)
        after = checked.fans()
        created |= after.keys() - before.keys()
        consumed |= before.keys() - after.keys()
    assert checked.checkpoint_json() == plain.checkpoint_json()
    if space == "t6k3":
        # _close_cycle reserved fans and run_step consumed them, under the asserts
        assert created and consumed
