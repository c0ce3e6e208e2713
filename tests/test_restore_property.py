"""restore as a checked boundary: mutated real checkpoints, two outcomes.

Every example takes a checkpoint of a real run and applies one or two
structured mutations. restore must then either refuse the result with
ValueError("corrupt checkpoint: ...") (under check=True an AssertionError
from the invariant mode's non-edge test is allowed too), or return a matcher
whose checkpoint() is the input up to the order of the fans, and whose state
passes audit(). A second test holds restore to the grouping reference in
tests/oracles.py, which accepts committed pairs in any order.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from hallforest import HallWitness, HaremMatcher, double_graph

from oracles import grouping_restore

MUTATIONS = ("drop", "duplicate", "swap", "renumber", "retype", "move_leaf", "add_fan", "free_copy")


class Bases(list):
    """(host, checkpoint) pairs, with a repr short enough for Hypothesis reports."""

    def __repr__(self) -> str:
        return f"<{len(self)} base checkpoints>"


@pytest.fixture(scope="module")
def bases(tree7, t6k3):
    """(host, checkpoint) of tree7 at steps 20 and 2,000 and of T6xK3 at step 6."""
    out = Bases()
    for host, steps in [(double_graph(tree7), (20, 2000)), (t6k3, (6,))]:
        m = HaremMatcher(host, 4, HallWitness.identity())
        for n in steps:
            m.advance_to_step(n)
            out.append((host, m.checkpoint()))
    assert out[2][1]["fans"] == [{"root": 8, "leaves": [38, 41, 44]}]
    return out


def mutate(draw, host, cp: dict, kind: str) -> dict:
    """cp with one structured mutation of the given kind; cp is not changed."""
    pairs = [list(p) for p in cp["committed"]]
    fans = [{"root": f["root"], "leaves": list(f["leaves"])} for f in cp["fans"]]
    out = dict(cp, committed=pairs, fans=fans)
    index = st.integers(0, len(pairs) - 1)
    top = 2 * max((b for _, b in pairs if type(b) is int), default=1) + 10

    def near(v):
        """A number near v: a host neighbor of it, or any number up to top."""
        anywhere = st.integers(-2, top)
        if type(v) is not int or v < 1:
            return anywhere
        return st.one_of(anywhere, st.sampled_from(host.neighbors_a(v)))

    if kind == "drop":
        del pairs[draw(index)]
    elif kind == "duplicate":
        pairs.insert(draw(index), pairs[draw(index)])
    elif kind == "swap":
        i, j = draw(index), draw(index)
        pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    elif kind == "renumber":
        pair = pairs[draw(index)]
        side = draw(st.integers(0, 1))
        pair[side] = draw(near(pair[0]))
    elif kind == "retype":
        # the step, a number of a committed pair, or a fan's root or leaf
        spots = [(out, "step"), (pairs[draw(index)], 0), (pairs[draw(index)], 1)]
        spots += [(fan, "root") for fan in fans]
        spots += [(fan["leaves"], i) for fan in fans for i in range(len(fan["leaves"]))]
        box, key = draw(st.sampled_from(spots))
        v = box[key]
        if type(v) is int:
            box[key] = draw(st.sampled_from([True, str(v), float(v), None, [v]]))
    elif kind == "move_leaf" and fans:
        fan = draw(st.sampled_from(fans))
        fan["leaves"][draw(st.integers(0, len(fan["leaves"]) - 1))] = draw(near(fan["root"]))
    elif kind == "add_fan":
        root = draw(st.integers(1, top))
        leaves = st.sampled_from(host.neighbors_a(root))
        fans.append({"root": root, "leaves": draw(st.lists(leaves, min_size=2, max_size=4, unique=True))})
    elif kind == "free_copy":
        # move the pair that holds a retired A-number's B-copy to a free neighbor,
        # so that only the mirror rule breaks
        retired, taken = set(cp["removed_a"]), {b for _, b in pairs}
        holding = [p for p in pairs if p[1] in retired and type(p[0]) is int and p[0] > 0]
        if holding:
            pair = draw(st.sampled_from(holding))
            free = [b for b in host.neighbors_a(pair[0]) if b not in taken]
            pair[1] = draw(st.sampled_from(free)) if free else pair[1]
    if draw(st.integers(0, 3)):
        # mostly keep the derived lists in step, so the mutation reaches past their test
        try:
            out["removed_a"] = sorted({p[0] for p in pairs})
            out["removed_b"] = sorted(p[1] for p in pairs)
        except TypeError:
            pass
    return out


def canonical(cp: dict) -> dict:
    """cp with its fans in the writer's order, by root; committed is kept as it is."""
    return dict(cp, fans=sorted(cp["fans"], key=lambda fan: fan["root"]))


def audit(m: HaremMatcher, check: bool) -> None:
    """The state invariants a restored matcher must hold."""
    graph, d1 = m.graph, m.d - 1
    retired, taken = m.removed_a_set(), m.removed_b_set()
    for a in retired:
        partners = m.partners_of(a)
        assert len(set(partners)) == d1
        assert all(m.owner_of(b) == a for b in partners)
        if check:
            assert all(graph.adjacent(a, b) for b in partners)
    assert all(b in m.partners_of(m.owner_of(b)) for b in taken)
    leaves = [b for fan in m.fans().values() for b in fan]
    assert len(leaves) == len(set(leaves)) and not taken & set(leaves)
    for root, fan in m.fans().items():
        assert root not in retired and len(fan) == d1
        assert all(graph.adjacent(root, b) for b in fan)
    assert retired <= taken  # the mirror rule
    # run_step takes the first live number from the cursor on, so none may lie below it
    assert all(map(m.a_removed, range(1, m._cursor)))


@given(data=st.data(), base=st.integers(0, 2), check=st.booleans(),
       kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2))
def test_restore_refuses_or_round_trips_a_mutated_checkpoint(bases, data, base, check, kinds):
    host, cp = bases[base]
    for kind in kinds:
        cp = mutate(data.draw, host, cp, kind)
    try:
        m = HaremMatcher.restore(host, HallWitness.identity(), cp, check=check)
    except ValueError as exc:
        assert str(exc).startswith("corrupt checkpoint: ")
        return
    except AssertionError as exc:
        assert check and "breaks the matching invariants" in str(exc)
        return
    assert canonical(m.checkpoint()) == canonical(cp)
    audit(m, check)


def outcome(restore, *args, **kwargs) -> HaremMatcher | None:
    """restore's matcher, or None when it refuses as restore may."""
    try:
        return restore(*args, **kwargs)
    except ValueError as exc:
        assert str(exc).startswith("corrupt checkpoint: ")
    except AssertionError as exc:
        assert kwargs["check"] and "breaks the matching invariants" in str(exc)
    return None


@given(data=st.data(), base=st.integers(0, 2), check=st.booleans(),
       kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2))
def test_restore_agrees_with_the_grouping_reference(bases, data, base, check, kinds):
    """restore accepts exactly what the grouping reference accepts with its
    committed pairs as the writer writes them, (a, b) ascending, and both
    then write the same checkpoint bytes."""
    host, cp = bases[base]
    for kind in kinds:
        cp = mutate(data.draw, host, cp, kind)
    m = outcome(HaremMatcher.restore, host, HallWitness.identity(), cp, check=check)
    reference = outcome(grouping_restore, HaremMatcher, host, HallWitness.identity(), cp, check=check)
    # in the writer's order, and as the writer writes them: the reference accepts 1.0
    # as a_1 in any pair of a_1 but the first, which restore refuses
    in_order = reference is not None and json.dumps(cp["committed"]) == json.dumps(
        reference.checkpoint()["committed"])
    assert (m is not None) == in_order
    if m is not None:
        assert m.checkpoint_json() == reference.checkpoint_json()
