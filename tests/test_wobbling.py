"""Direction labelings and the free permutation pair on a 4-regular forest."""

from __future__ import annotations

import json

import pytest

from hallforest import (
    EdgeLabeling,
    ForestFunction,
    WobblingPair,
    reduced_words,
    verify_free_semiregular,
)
from hallforest.wobbling import DIRS, INVERSE


@pytest.fixture(scope="module")
def forest74(tree7) -> ForestFunction:
    return ForestFunction(tree7, 4)


@pytest.fixture(scope="module")
def pair(forest74):
    return WobblingPair(EdgeLabeling(forest74))


def test_labeling_needs_four_regularity(tree6):
    narrow = ForestFunction(tree6, 3)
    assert len(narrow.forest_neighbors(1)) == 3
    with pytest.raises(ValueError):
        EdgeLabeling(narrow)


def test_ordered_neighbors_pin(forest74):
    assert forest74.forest_neighbors(1) == (2, 3, 4, 15)


def test_root_directions_pin(pair):
    # at a root the ascending neighbors take a+, a-, b+, b- in order
    assert pair.labeling.directions(1) == (2, 3, 4, 15)
    assert pair.alpha(1) == 2
    assert pair.alpha_inv(1) == 3
    assert pair.beta(1) == 4
    assert pair.beta_inv(1) == 15


def test_directions_are_a_bijection_onto_neighbors(pair, forest74):
    for v in range(1, 61):
        dirs = pair.labeling.directions(v)
        assert len(set(dirs)) == 4
        assert tuple(sorted(dirs)) == forest74.forest_neighbors(v)


def test_direction_labels_are_edge_consistent(pair):
    directions = pair.labeling.directions
    for v in range(1, 31):
        for name, w in zip(DIRS, directions(v)):
            assert directions(w)[DIRS.index(INVERSE[name])] == v


def test_consistency_across_a_whole_forest_ball(pair, forest74):
    # labels of depth-3 vertices exist but their own labeling would chase
    # f* another ray level up (~5x the vertex number per level), so the
    # exhaustive edge check stops at the depth-2 sub-ball
    layers = [{1}]
    ball = {1}
    for _ in range(3):
        grown = {w for v in layers[-1] for w in forest74.forest_neighbors(v)
                 if w not in ball}
        layers.append(grown)
        ball.update(grown)
    assert len(ball) == 1 + 4 + 4 * 3 + 4 * 3 * 3
    inner = layers[0] | layers[1] | layers[2]
    directions = pair.labeling.directions
    for v in sorted(inner):
        for name, w in zip(DIRS, directions(v)):
            if w in inner:
                assert directions(w)[DIRS.index(INVERSE[name])] == v


def test_moves_invert_each_other(pair):
    for n in range(1, 31):
        assert pair.alpha_inv(pair.alpha(n)) == n
        assert pair.alpha(pair.alpha_inv(n)) == n
        assert pair.beta_inv(pair.beta(n)) == n
        assert pair.beta(pair.beta_inv(n)) == n


def test_moves_follow_forest_edges(pair, forest74):
    for n in range(1, 41):
        for token in DIRS:
            assert pair.move(token, n) in forest74.forest_neighbors(n)


def test_apply_word_acts_rightmost_first(pair):
    assert pair.apply_word(("a+", "b+"), 1) == pair.alpha(pair.beta(1))
    assert pair.apply_word((), 9) == 9


def test_generators_have_no_fixed_points(pair):
    for n in range(1, 101):
        assert pair.alpha(n) != n
        assert pair.beta(n) != n


def test_short_words_have_no_fixed_points(pair):
    for length in (1, 2):
        for word in reduced_words(length):
            for n in range(1, 31):
                assert pair.apply_word(word, n) != n, (word, n)


def test_commutator_moves_everything(pair):
    word = ("a+", "b+", "a-", "b-")
    for n in range(1, 13):
        assert pair.apply_word(word, n) != n


def test_alpha_orbit_is_locally_injective(pair):
    for n in (1, 5, 9):
        orbit = [n]
        x = y = n
        for _ in range(3):
            x = pair.alpha(x)
            y = pair.alpha_inv(y)
            orbit += [x, y]
        assert len(set(orbit)) == 7


def test_reduced_words_counts_and_order():
    assert [len(reduced_words(k)) for k in (1, 2, 3)] == [4, 12, 36]
    assert reduced_words(1) == [("a+",), ("a-",), ("b+",), ("b-",)]
    assert reduced_words(2)[:5] == [
        ("a+", "a+"), ("a+", "b+"), ("a+", "b-"),
        ("a-", "a-"), ("a-", "b+")]
    for word in reduced_words(3):
        assert all(t != INVERSE[s] for s, t in zip(word, word[1:]))
    assert reduced_words(0) == [()]  # the empty word
    for length in (-1, -2):
        with pytest.raises(ValueError, match="word length is nonnegative"):
            reduced_words(length)


def test_verify_free_semiregular_report(pair):
    report = verify_free_semiregular(pair, 2, 24)
    assert report["ok"], report["violations"]
    assert report["words_checked"] == 16
    assert report["points_checked"] == 16 * 24


def test_verify_reports_a_labeling_that_alpha_inv_does_not_invert(tree7):
    pair = WobblingPair(EdgeLabeling(ForestFunction(tree7, 4)))
    dirs = pair.labeling._dirs  # a throwaway instance: label 1..6, then corrupt 1
    for n in range(1, 7):
        pair.labeling.directions(n)
    a_plus, a_minus, b_plus, b_minus = dirs[1]
    dirs[1] = (a_minus, a_plus, b_plus, b_minus)
    report = verify_free_semiregular(pair, 1, 6)
    assert not report["ok"]
    # 2 and 3 are 1's alpha neighbors, so the swap breaks them too
    assert report["violations"] == [f"alpha is not inverted by alpha_inv at {n}" for n in (1, 2, 3)]


def test_verify_reaches_word_length_five_at_word_length_two_cost(tree7):
    # the split decider reads labels one move out, as the local checks do,
    # so length 5 forces the 4,653 steps that length 2 forces
    forest = ForestFunction(tree7, 4, step_limit=5000)
    report = verify_free_semiregular(WobblingPair(EdgeLabeling(forest)), 5, 24)
    assert report["ok"], report["violations"]
    assert report["words_checked"] == 484
    assert report["points_checked"] == 484 * 24
    assert forest.matcher.step == 4653


def test_fixes_agrees_with_the_plain_split_at_length_six(tree7):
    # above length 5 the decider keeps its split; checked against u^-1(n)
    # and (m.v)(n) read without the forest shortcut, at point 1
    pair = WobblingPair(EdgeLabeling(ForestFunction(tree7, 4)))
    words = reduced_words(6)
    assert len(words) == 972
    for word in words:
        undo_u = tuple(INVERSE[t] for t in reversed(word[:3]))
        plain = pair.apply_word(word[3:], 1) == pair.apply_word(undo_u, 1)
        fixed = pair.fixes(word, 1)
        assert fixed == plain and not fixed, word


# -- the wobble artifact the CLI writes ------------------------------------------


def test_wobble_json_shape(cli_artifact):
    payload = json.loads(cli_artifact(7, ["wobble", "--n", 6, "--word-len", 1], "wobble.json"))
    assert set(payload) == {str(n) for n in range(1, 7)}
    assert payload["1"] == [2, 3, 4, 15]
    assert all(len(v) == 4 for v in payload.values())


def test_wobble_dot_shape(cli_artifact):
    dot = cli_artifact(7, ["wobble", "--n", 4, "--word-len", 1, "--format", "dot"], "wobble.dot")
    assert dot.startswith("digraph")
    assert '"1" -> "2" [label="a"];' in dot
    assert '"1" -> "4" [label="b"];' in dot
