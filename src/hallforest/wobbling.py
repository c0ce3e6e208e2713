"""Pairs of bounded-displacement permutations acting freely.

A 4-regular forest supports four mutually inverse movement directions.
Every vertex names its neighbors a+, a-, b+ and b- in a way that is
consistent edge-wise: whoever you reach by a+ reaches you back by a-, and
likewise for the b pair. Directions are seeded at each tree's root
(ascending neighbors take a+, a-, b+, b- in that order) and propagate
downward: a child enters its parent's slot delta, so the child aims
inverse-of-delta back at the parent and hands its remaining neighbors,
ascending, the remaining directions in canonical order.

Following a+ everywhere defines a permutation alpha whose inverse is
following a-; same for beta with the b pair. Both move every point along a
forest edge, so displacement stays inside the entourage composed with
itself, and because the forest has no cycles, no nonempty reduced word over
{alpha, alpha-inverse, beta, beta-inverse} can fix a point: the pair acts
freely. WobblingPair.fixes alone decides whether a word fixes a point.
"""

from __future__ import annotations

from .forest import ForestFunction

DIRS = ("a+", "a-", "b+", "b-")
INVERSE = {"a+": "a-", "a-": "a+", "b+": "b-", "b-": "b+"}


class EdgeLabeling:
    """Per-vertex assignment of the four directions to forest neighbors."""

    def __init__(self, forest: ForestFunction):
        if forest.d != len(DIRS):
            raise ValueError(f"direction labeling needs a {len(DIRS)}-regular forest, got d={forest.d}")
        self.forest = forest
        self._dirs: dict[int, tuple[int, ...]] = {}

    def directions(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in DIRS order (a+, a-, b+, b-)."""
        memo = self._dirs
        if v in memo:
            return memo[v]
        path = self.forest.path_to_root(v)
        root = path[-1]
        if root not in memo:
            memo[root] = self.forest.forest_neighbors(root)  # ascending neighbors take DIRS in order
        # labelled vertices are closed under parents, so _assign returns at once down a labelled prefix
        for j in range(len(path) - 1, 0, -1):
            self._assign(path[j], path[j - 1])
        return memo[v]

    def _assign(self, parent: int, child: int) -> None:
        if child in self._dirs:
            return
        pdirs = self._dirs[parent]
        back = INVERSE[DIRS[pdirs.index(child)]]
        others = [w for w in self.forest.forest_neighbors(child) if w != parent]
        slots = {back: parent}
        for name, w in zip((x for x in DIRS if x != back), others):
            slots[name] = w
        self._dirs[child] = tuple(slots[x] for x in DIRS)


class WobblingPair:
    """Two permutations alpha and beta read off a direction labeling."""

    def __init__(self, labeling: EdgeLabeling):
        self.labeling = labeling
        self.forest = labeling.forest

    def alpha(self, n: int) -> int:
        return self.labeling.directions(n)[0]

    def alpha_inv(self, n: int) -> int:
        return self.labeling.directions(n)[1]

    def beta(self, n: int) -> int:
        return self.labeling.directions(n)[2]

    def beta_inv(self, n: int) -> int:
        return self.labeling.directions(n)[3]

    def move(self, token: str, n: int) -> int:
        return self.labeling.directions(n)[DIRS.index(token)]

    def apply_word(self, word: tuple[str, ...], n: int) -> int:
        """Compose left to right: the rightmost token acts first."""
        for token in reversed(word):
            n = self.move(token, n)
        return n

    def fixes(self, word: tuple[str, ...], n: int) -> bool:
        """Whether word fixes n, decided as m(v(n)) == u^-1(n).

        A letter-by-letter walk reads labels |w|-1 moves from n, and a move
        up a root ray multiplies the number by about 36 on the degree-7
        tree. So split w = u.m.v (rightmost letter first), |u| = floor(|w|/2),
        |v| <= 2, with a middle letter m only when |w| - |u| > 2. As alpha and
        beta are permutations, w(n) = n exactly when m(v(n)) = u^-1(n), for
        any split; up to length 5 both sides read labels one move out at
        most. m(v(n)) is a forest neighbor of v(n), that is f* maps one of the
        two to the other, so m's label at v(n) is read only when steps_to
        relates v(n) and u^-1(n). At length 5, |u| + |v| = 4 puts them at
        even forest distance, so they never are.
        """
        cut = len(word) // 2
        rest = word[cut:]
        middle, v = (rest[0], rest[1:]) if len(rest) > 2 else (None, rest)
        here = self.apply_word(v, n)
        target = self.apply_word(tuple(INVERSE[t] for t in reversed(word[:cut])), n)
        if middle is None:
            return here == target
        related = self.forest.steps_to(here, target) or self.forest.steps_to(target, here)
        return related and self.move(middle, here) == target


def reduced_words(length: int) -> list[tuple[str, ...]]:
    """All reduced words of exactly the given length, in canonical order.

    Canonical order ranks tokens a+, a-, b+, b- and extends words on the
    right; reduced means no token directly follows its inverse. A negative
    length has no words, and is refused.
    """
    if length < 0:
        raise ValueError("word length is nonnegative")
    words: list[tuple[str, ...]] = [()]
    for _ in range(length):
        words = [w + (t,) for w in words for t in DIRS
                 if not (w and t == INVERSE[w[-1]])]
    return words


def verify_free_semiregular(pair: WobblingPair, word_len: int, upto: int) -> dict:
    """The wobbling report block: inverse consistency, edge displacement,
    and freeness on a range.

    Freeness is tested exhaustively: every nonempty reduced word of length
    at most word_len must move every point in 1..upto (WobblingPair.fixes).
    Words are tried in canonical order and points ascending, so a failure
    (or budget exhaustion in the matcher) happens at a reproducible spot.
    """
    violations = []
    forest = pair.forest
    related = forest.entourage.related
    for n in range(1, upto + 1):
        if pair.alpha_inv(pair.alpha(n)) != n or pair.alpha(pair.alpha_inv(n)) != n:
            violations.append(f"alpha is not inverted by alpha_inv at {n}")
        if pair.beta_inv(pair.beta(n)) != n or pair.beta(pair.beta_inv(n)) != n:
            violations.append(f"beta is not inverted by beta_inv at {n}")
        for token in ("a+", "b+"):
            w = pair.move(token, n)
            if w not in forest.forest_neighbors(n):
                violations.append(f"{token} at {n} leaves the forest")
                continue
            # each forest edge is one or two entourage hops; find them from
            # whichever endpoint the forest step maps across the edge
            hops = None
            if forest.f_star(n) == w:
                hops = forest.f_star_path(n)
            elif forest.f_star(w) == n:
                hops = forest.f_star_path(w)
            if hops is None:
                violations.append(f"edge {n}-{w} is not a forest step either way")
            else:
                for p, q in zip(hops, hops[1:]):
                    if not related(p, q):
                        violations.append(f"hop {p}->{q} of edge {n}-{w} leaves the entourage")
    words = [word for length in range(1, word_len + 1) for word in reduced_words(length)]
    for word in words:
        for n in range(1, upto + 1):
            if pair.fixes(word, n):
                violations.append(f"reduced word {''.join(word)} fixes {n}")
    return {"ok": not violations, "upto": upto, "word_len": word_len,
            "words_checked": len(words), "points_checked": len(words) * upto,
            "violations": violations}
