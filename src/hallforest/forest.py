"""Regular forests carved out of symmetric neighborhoods.

Pipeline: a symmetric entourage E on the positive integers (reflexive, with
finite explicitly-listable sections) is stripped of its diagonal, doubled
into a bipartite host, and fed to the incremental matcher. The resulting
match function f, with its cycle control, induces a d-regular forest whose
edges all lie within E composed with itself.

The forest step f* mostly follows f. Each f-cycle is broken between its
minimal element (the root of that tree) and the root's image; two infinite
rays of iterated least-transient-preimages, one anchored at the root and one
at the root's image, are rewired so the root escapes upward instead of
closing the cycle: even positions of the root ray climb two at a time, odd
positions descend, and the image ray descends throughout. Everything else
steps by f. Neighbor sets are {f*(x)} together with the d-1 points mapping
to x, and every x has a well-defined path to its root, which is what the
direction labeling downstream leans on.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from .graph import SymmetricDoubleGraph
from .hall import HallWitness
from .matcher import HaremMatcher, controlled_orbit


class Entourage:
    """A symmetric reflexive relation on positive integers with finite sections.

    A space defines neighbors(v), as a method or as a callable attribute;
    section and related derive from it.
    """

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Everything related to v except v itself, ascending: the diagonal-free section."""
        raise NotImplementedError

    def section(self, v: int) -> tuple[int, ...]:
        """Everything related to v, v itself included, ascending."""
        return tuple(sorted(self.neighbors(v) + (v,)))

    def related(self, x: int, y: int) -> bool:
        """Membership in the diagonal-free part: x and y are distinct and related."""
        return y in self.neighbors(x)


class TreeEntourage(Entourage):
    """Adjacency-plus-diagonal of the infinite r-regular tree.

    Vertices are numbered breadth-first: 1 is the root with children
    2..r+1, and every later vertex v has r-1 children packed contiguously,
    so parents and children are arithmetic in v. Every vertex sees exactly
    r tree neighbors.
    """

    def __init__(self, r: int):
        # r is formatted into the text that neighbors generates, so only an int may reach it
        if type(r) is not int:
            raise TypeError(f"regular tree degree must be an int, got {r!r}")
        if r < 3:
            raise ValueError("regular tree degree must be at least 3")
        self.r = r
        # each v > 1 has k = r-1 children, the first k*v + 4-r; each v > r+1 the parent (v-3)//k + 1
        self._k = r - 1
        self._offset = 4 - r

    @cached_property
    def neighbors(self) -> Callable[[int], tuple[int, ...]]:
        """The section of v as one function, generated from the text below.

        Each section is the parent, then the children: parent < v < children, so
        ascending. A deep section (v > r+1) is one tuple display; for r = 7 it is
        ((v - 3) // 6 + 1, first, first + 1, ..., first + 5) with first = 6 * v - 3,
        built in about 0.57x the time of unpacking a range. The shallow arm keeps its
        range, so a float such as 2.5 raises TypeError there. The display's length
        depends on r, so the text is generated, as namedtuple generates __new__, on
        first access: construction stays O(1) in r, and a read is one call with no
        method frame around it.
        """
        k, offset = self._k, self._offset
        children = "".join(f", first + {i}" for i in range(1, k))
        namespace: dict = {}
        exec(f"def neighbors(v):\n"
             f"    if v > {k + 2}:\n"
             f"        first = {k} * v + {offset}\n"
             f"        return ((v - 3) // {k} + 1, first{children})\n"
             f"    if v < 1:\n"
             f"        raise ValueError(\"vertices are positive\")\n"
             f"    if v == 1:\n"
             f"        return tuple(range(2, {k + 3}))\n"
             f"    first = {k} * v + {offset}\n"
             f"    return (1, *range(first, first + {k}))\n", namespace)
        return namespace["neighbors"]


def double_graph(entourage: Entourage) -> SymmetricDoubleGraph:
    """Bipartite double of the diagonal-free part of the entourage: the host reads
    the entourage's neighbors callable as it is, unwrapped."""
    return SymmetricDoubleGraph(entourage.neighbors)


class ExpansionCheck(NamedTuple):
    ok: bool
    subset_size: int
    image_size: int
    required: int


def check_expansion(entourage: Entourage, subset: Iterable[int], factor: int) -> ExpansionCheck:
    """Does the entourage image of the subset reach factor times its size?"""
    f_set = sorted(set(subset))
    image: set[int] = set()
    for v in f_set:
        image.update(entourage.section(v))
    return ExpansionCheck(len(image) >= factor * len(f_set), len(f_set), len(image), factor * len(f_set))


class Classification(NamedTuple):
    """Where a point sits relative to its tree's rewired cycle.

    kind is one of: root (minimum of its f-cycle), image (the root's
    f-image on that cycle), cycle (other periodic points), root_ray /
    image_ray (on the ray of iterated least transient preimages anchored
    at the root / at its image, height = ray position >= 1), plain
    (everything else). root names the tree either way.
    """

    kind: str
    height: int
    root: int

    @property
    def climbs(self) -> bool:
        """Whether the forest step from here climbs two places up the root ray."""
        return self.kind == "root" or (self.kind == "root_ray" and self.height % 2 == 0)


# the ray a transient point may extend, by the kind of its f-image
_RAY_ABOVE = {"root": "root_ray", "root_ray": "root_ray",
              "image": "image_ray", "image_ray": "image_ray"}


class ForestFunction:
    """The forest step f* and its neighbor structure over an entourage."""

    def __init__(
        self,
        entourage: Entourage,
        d: int,
        step_limit: int | None = None,
    ):
        self.entourage = entourage
        self.d = d
        self.matcher = HaremMatcher(
            double_graph(entourage), d, HallWitness.identity(), step_limit=step_limit)
        self._ltp: dict[int, int] = {}
        self._class: dict[int, Classification] = {}
        # every classified point's (tail, period): its hops to its cycle and the
        # cycle's length; the walks stop at these points
        self._reach: dict[int, tuple[int, int]] = {}
        self._pred: dict[int, int] = {}  # every classified periodic point's cycle predecessor
        self._star: dict[int, int] = {}

    # -- the underlying match function --------------------------------------

    def f(self, n: int) -> int:
        return self.matcher.f(n)

    def f_preimages(self, n: int) -> tuple[int, ...]:
        return self.matcher.preimages(n)

    def least_transient_preimage(self, n: int) -> int:
        """The least f-preimage of n that is not periodic.

        A preimage p of n is periodic exactly when n is and p is n's cycle
        predecessor. A classified n's predecessor, if it has one, is in the
        memo; an unclassified n's walk, which stops at the first classified
        point, returns to n exactly when n is periodic, and then ends on the
        predecessor.
        """
        hit = self._ltp.get(n)
        if hit is not None:
            return hit
        if n in self._class:
            periodic = self._pred.get(n)
        else:
            orbit, first = controlled_orbit(self.f, n, self._reach)
            periodic = orbit[-1] if first == 0 else None
        options = [p for p in self.f_preimages(n) if p != periodic]
        if not options:
            raise RuntimeError(f"{n} has no transient preimage; needs d >= 3")
        result = min(options)
        self._ltp[n] = result
        return result

    # -- classification ------------------------------------------------------

    def classify(self, u: int) -> Classification:
        """u's Classification, and that of every point its orbit walk reads.

        The walk stops at the first classified point or at a repeat, which
        closes a new cycle, so f is read once per classified point. Each new
        point down that walk is then classified from its f-image, nearest the
        cycle first: a transient point lies on a ray exactly when its image
        is that ray's anchor or on that ray, and it is the least transient
        preimage of its image. Its height is then its image's plus one.
        """
        hit = self._class.get(u)
        if hit is not None:
            return hit
        reach = self._reach
        orbit, first = controlled_orbit(self.f, u, reach)
        joined = reach.get(orbit[first])
        if joined is None:
            cycle = orbit[first:]
            root = min(cycle)
            image = cycle[(cycle.index(root) + 1) % len(cycle)]
            joined = (0, len(cycle))
            for pred, v in zip(cycle[-1:] + cycle[:-1], cycle):
                kind = "root" if v == root else ("image" if v == image else "cycle")
                self._class[v] = Classification(kind, 0, root)
                reach[v] = joined
                self._pred[v] = pred
        tail, period = joined
        below = self._class[orbit[first]]
        for i in range(first - 1, -1, -1):
            ray = _RAY_ABOVE.get(below.kind)
            if ray and self.least_transient_preimage(orbit[i + 1]) == orbit[i]:
                below = Classification(ray, below.height + 1, below.root)
            else:
                below = Classification("plain", 0, below.root)
            tail += 1
            self._class[orbit[i]] = below
            reach[orbit[i]] = (tail, period)
        return self._class[u]

    # -- the forest step -----------------------------------------------------

    def _descent(self, x: int, info: Classification) -> tuple[int, ...]:
        """The route by f: two hops from a ray point at height >= 2, else one."""
        mid = self.f(x)
        if info.kind in ("root_ray", "image_ray") and info.height >= 2:
            return (x, mid, self.f(mid))
        return (x, mid)

    def f_star_path(self, x: int) -> tuple[int, ...]:
        """The one- or two-hop route realizing the forest step from x.

        A climbing point goes two places up its root ray; every other point
        descends by f. Consecutive entries are always related by the
        diagonal-free part of the entourage, so a length-3 path certifies
        membership in the entourage composed with itself.
        """
        info = self.classify(x)
        if info.climbs:
            up = self.least_transient_preimage
            mid = up(x)
            return (x, mid, up(mid))
        return self._descent(x, info)

    def f_star(self, x: int) -> int:
        hit = self._star.get(x)
        if hit is None:
            hit = self._star[x] = self.f_star_path(x)[-1]
        return hit

    def steps_to(self, x: int, y: int) -> bool:
        """Whether f*(x) == y, without evaluating a climb that cannot land on y.

        Climb lemma: a climbing point (a root, or a root-ray point at even
        height h) steps to the root-ray point two heights up, at h + 2. So
        the climb, which settles partners a tree level beyond x, only runs
        when y is classified there.
        """
        here = self.classify(x)
        if here.climbs and self.classify(y) != Classification("root_ray", here.height + 2, here.root):
            return False
        return self.f_star(x) == y

    def f_star_preimages(self, x: int) -> tuple[int, ...]:
        """All u with f*(u) = x; exactly d - 1 of them.

        Candidates are the f-preimages plus the single possible ray jump,
        which only exists when x itself is classified on a ray (or anchors
        one), so no climbing happens for plain points.

        An f-preimage u whose own step climbs (a root, or a root-ray point
        at even height) is dropped on its classification alone: f*(u) =
        up(up(u)) = x would close the f-cycle x -> up(u) -> u -> x through
        up(u), which is transient by definition. Evaluating that climb
        would settle partners a tree level beyond every neighbor of x.
        """
        info = self.classify(x)
        cands = {u for u in self.f_preimages(x) if not self.classify(u).climbs}
        up = self.least_transient_preimage
        if info.kind == "root_ray" and info.height % 2 == 0:
            cands.add(self.f(self.f(x)))
        elif info.kind in ("root_ray", "image_ray", "image"):
            cands.add(up(up(x)))
        return tuple(sorted(u for u in cands if self.f_star(u) == x))

    def forest_neighbors(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(self.f_star_preimages(x) + (self.f_star(x),)))

    # -- tree structure --------------------------------------------------------

    def parent(self, u: int) -> int | None:
        """The forest neighbor one step closer to u's root, None at the root."""
        info = self.classify(u)
        if info.kind == "root":
            return None
        return self._descent(u, info)[-1]

    def path_to_root(self, u: int) -> list[int]:
        path = [u]
        while True:
            p = self.parent(path[-1])
            if p is None:
                return path
            path.append(p)

    def roots_up_to(self, n: int) -> tuple[int, ...]:
        return tuple(sorted({self.classify(v).root for v in range(1, n + 1)}))


# -- verification ------------------------------------------------------------


def verify_forest(forest: ForestFunction, upto: int) -> dict:
    """The forest report block: the forest invariants checked on 1..upto.

    Fixed-point freeness; acyclicity by certified escape (every f*-orbit
    reaches the strictly climbing part of a root ray without revisiting
    anything, after which heights only grow); every forest edge realized
    inside the entourage composed with itself; and d-1 preimages per point
    on 1..min(upto, 60).
    """
    pre_upto = min(upto, 60)
    violations = []
    related = forest.entourage.related
    for n in range(1, upto + 1):
        if forest.f_star(n) == n:
            violations.append(f"forest step fixes {n}")
        hops = forest.f_star_path(n)
        for p, q in zip(hops, hops[1:]):
            if not related(p, q):
                violations.append(f"hop {p}->{q} realizing the step at {n} leaves the entourage")
        seen = {n}
        x = n
        budget = max(3 * n, 40)
        for _ in range(budget):
            if forest.classify(x).climbs:
                break  # from here the orbit climbs a ray, heights strictly grow
            x = forest.f_star(x)
            if x in seen:
                violations.append(f"forest orbit of {n} revisits {x}")
                break
            seen.add(x)
        else:
            violations.append(
                f"forest orbit of {n} shows no certified climb within {budget} steps")
    for n in range(1, pre_upto + 1):
        pre = forest.f_star_preimages(n)
        if len(pre) != forest.d - 1:
            violations.append(f"{n} has {len(pre)} forest preimages, expected {forest.d - 1}")
    return {"ok": not violations, "upto": upto, "preimage_upto": pre_upto,
            "violations": violations}
