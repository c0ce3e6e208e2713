"""Incremental perfect (1, d-1)-matching with cycle control.

The construction consumes a symmetric, diagonal-free bipartite host (both
sides copies of the positive integers, adjacency symmetric in the numbers,
never relating a number to itself) and retires vertices step by step:

  part 1   the least live A-vertex commits to d-1 partners, taken from a
           relaxed (1, d)-matching on a small ball around it, or from the
           fan reserved for it earlier;
  part 2   if the B-copy of that vertex is still free, a short chain of
           forced commitments closes a 2-cycle through it, consuming
           reserved fans it runs into and creating at most one new fan.

The partner map induces f(n) = the A-vertex matched to b_n. Keeping every
removed A-number's B-copy removed within the same step preserves the
mirror-edge property of the remaining host, which is what keeps the forced
chain edges available; the chain discipline keeps f's cycles short and
anchored: f(f(1)) = 1, minimal periods never exceed the vertex number, and
every orbit parks on a cycle within explicit bounds.

State lives in flat arrays (b-number -> owning a, a-number -> d-1 partner
slots) so prefixes with millions of steps stay affordable.
"""

from __future__ import annotations

import json
from array import array
from itertools import compress, count
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .graph import SymmetricDoubleGraph
from .hall import HallWitness, solve_relaxed


class MatcherBudgetError(RuntimeError):
    """The step budget ran out before the requested vertex was settled.

    query is the lazy query that needed one more step ("f", "preimages" or
    "advance_to_step"), vertex its argument (a vertex, or the target step), and
    steps the steps the matcher had run.
    """

    def __init__(self, query: str, vertex: int, steps: int):
        super().__init__(f"step budget exhausted after {steps} steps, at {query}({vertex})")
        self.query, self.vertex, self.steps = query, vertex, steps


class CycleControlError(RuntimeError):
    """An f-orbit breaks the cycle-control bounds that check_cycle_control checks."""


def _grow(slots: array, size: int) -> None:
    """Zero-fill slots to size entries, if shorter; frombytes over-allocates, so
    growth one number at a time stays amortized."""
    if size > len(slots):
        slots.frombytes(bytes((size - len(slots)) * slots.itemsize))


def _joined(slots: array, width: int, fmt: Callable[..., str], reads: int = 0) -> str:
    """fmt(n, *its first `reads` slots) for each set number n, ascending, comma-joined.

    Number n holds slots[n*width:(n+1)*width], and is set when the first is nonzero.
    Reading 1,024 numbers at a time bounds memory and makes no object per unset number.
    """
    size, chunks = 1024, []
    offsets = list(range(size))
    for lo in range(0, len(slots) // width, size):
        columns = [slots[lo * width + i:(lo + size) * width:width] for i in range(width)]
        numbers = map(lo.__add__, compress(offsets, columns[0]))
        chunks.append(",".join(map(fmt, numbers, *(compress(c, columns[0]) for c in columns[:reads]))))
    return ",".join(filter(None, chunks))


def _check_step_limit(step_limit: int | None) -> None:
    """Refuse a step budget other than None or a non-negative int, as d is refused."""
    if step_limit is None:
        return
    if type(step_limit) is not int:
        raise TypeError(f"step_limit must be an int or None, got {step_limit!r}")
    if step_limit < 0:
        raise ValueError(f"step_limit must be non-negative, got {step_limit}")


class HaremMatcher:
    """Stateful constructor of the perfect (1, d-1)-matching.

    graph must be symmetric and diagonal-free in the sense of
    SymmetricDoubleGraph; h is the host's Hall witness, read only by the
    sanity check of the host; d is an int, at least 3. Every step solves a
    relaxed matching on a radius-3 ball. step_limit, when set, is a
    non-negative int that bounds run_step calls made on behalf of lazy
    queries; exceeding it raises MatcherBudgetError instead of grinding on.
    """

    def __init__(
        self,
        graph: SymmetricDoubleGraph,
        d: int,
        h: HallWitness,
        step_limit: int | None = None,
        check: bool = False,
    ):
        if type(d) is not int:
            raise TypeError(f"d must be an int, got {d!r}")
        if d < 3:
            raise ValueError("d must be at least 3")
        if h(0) != 0:
            raise ValueError("witness must satisfy h(0) = 0")
        _check_step_limit(step_limit)
        self.graph = graph
        self.d = d
        self._sanity_check_host(h)  # before anything is allocated, as d may be huge
        self.step_limit = step_limit
        self.check = check
        self.step = 0
        self._cursor = 1  # least A-number that may still be live
        # owner[b] = a once b_b is matched to a_a, else 0; index 0 unused
        self._owner = array("i")
        # parts[a*(d-1) ... a*(d-1)+d-2] = partners of a_a once retired, else zeros.
        # Both start empty and grow on demand; a slot past the end reads as 0.
        self._parts = array("i")
        self._fans: dict[int, tuple[int, ...]] = {}
        self._leaf_root: dict[int, int] = {}

    # -- plumbing ---------------------------------------------------------

    def _sanity_check_host(self, h: HallWitness) -> None:
        g = self.graph
        probe = max(1, h(1))
        for v in range(1, 13):
            if g.adjacent(v, v):
                raise ValueError(f"host relates {v} to itself; a diagonal-free host is required")
        for v in range(1, 7):
            for w in range(1, 7):
                if g.adjacent(v, w) != g.adjacent(w, v):
                    raise ValueError("host adjacency is not symmetric in the numbers")
        # Cheap necessary piece of the counting hypothesis: singletons must
        # clear d partners plus the slack the witness promises at size 1.
        slack = 1 if probe <= 1 else 0
        for v in range(1, 7):
            if g.degree_a(v) < self.d + slack:
                raise ValueError(
                    f"A-vertex {v} has degree {g.degree_a(v)} < {self.d + slack}; "
                    "host cannot satisfy the counting hypothesis"
                )

    # The state arrays are indexed by number, where a negative index would count
    # from the far end, so each reader refuses numbers below 1, as f and preimages do.

    def owner_of(self, b: int) -> int:
        """The A-number matched to b_b so far, 0 if not yet matched."""
        if b < 1:
            raise ValueError("vertices are positive")
        return self._owner[b] if b < len(self._owner) else 0

    def partners_of(self, a: int) -> tuple[int, ...]:
        """Committed partners of a_a so far (empty or exactly d-1 numbers)."""
        if not self.a_removed(a):
            return ()
        base = a * (self.d - 1)
        return tuple(self._parts[base:base + self.d - 1])

    def a_removed(self, a: int) -> bool:
        if a < 1:
            raise ValueError("vertices are positive")
        base = a * (self.d - 1)
        return base < len(self._parts) and self._parts[base] != 0

    def b_removed(self, b: int) -> bool:
        return self.owner_of(b) != 0

    def removed_a_set(self) -> frozenset[int]:
        d1 = self.d - 1
        return frozenset(compress(count(1), self._parts[d1::d1]))

    def removed_b_set(self) -> frozenset[int]:
        return frozenset(filter(None, self._parts))

    def fans(self) -> dict[int, tuple[int, ...]]:
        return dict(self._fans)

    # -- committing -------------------------------------------------------

    def _check_commit(self, a: int, bs: Sequence[int]) -> None:
        """The invariant mode's test of committing a_a to bs, before it is written.

        Raised, not asserted, so that python -O keeps the invariant mode.
        """
        d1 = self.d - 1
        if len(bs) != d1 or len(set(bs)) != d1 or self.a_removed(a) or any(
                self.b_removed(b) or b in self._leaf_root or not self.graph.adjacent(a, b)
                for b in bs):
            raise AssertionError(f"committing a_{a} to {tuple(bs)} breaks the matching invariants")

    def _commit(self, a: int, bs: tuple[int, ...]) -> None:
        d1 = self.d - 1
        if self.check:
            self._check_commit(a, bs)
        row = sorted(bs)
        parts, owner = self._parts, self._owner
        _grow(parts, (a + 1) * d1)
        _grow(owner, row[-1] + 1)
        parts[a * d1:(a + 1) * d1] = array("i", row)
        for b in row:
            owner[b] = a

    # -- the fan ledger: the only code that edits _fans and _leaf_root -------

    def _take_fan(self, root: int) -> tuple[int, ...]:
        """Release the fan reserved for root and return its leaves."""
        leaves = self._fans.pop(root)
        for b in leaves:
            del self._leaf_root[b]
        return leaves

    def _reserve_fan(self, root: int, leaves: tuple[int, ...]) -> None:
        """Hold leaves back for root, out of every ball, until it commits.

        Checked on every call, as restore passes checkpoint fans here: the root
        is live and holds no fan; its d-1 distinct leaves are uncommitted,
        unreserved and in its section.
        """
        if (self.a_removed(root) or root in self._fans or len(set(leaves)) != self.d - 1
                or any(self.b_removed(b) or b in self._leaf_root for b in leaves)
                or not set(leaves).issubset(self.graph.neighbors_a(root))):
            raise AssertionError(f"reserving {leaves} for a_{root} breaks the fan ledger")
        self._fans[root] = leaves
        for b in leaves:
            self._leaf_root[b] = root

    # -- ball solving -----------------------------------------------------

    def _ball_parts(self, center: int) -> dict[int, list[int]]:
        """Relaxed (1, d)-matching on the radius-3 ball around a live center.

        The ball lives in the current remaining host minus all fan roots and
        fan leaves; the center is not a fan root. Its interior B-vertices
        are the center's live section, its A-vertices the live sections of
        those. Only these sections are read here; they go to solve_relaxed
        as the interior's A-lists, and it reads the other sections only as
        far as it needs them. Returns the sorted partners of the center and
        of each A-vertex that holds an interior B-vertex; the rest of the
        ball is matched only to certify that it can be. Liveness is read
        straight from the state arrays, here and, for B-vertices, in
        solve_relaxed, which takes the owner array and the fan-leaf map;
        nothing mutates them.
        """
        section = self.graph.neighbors_a
        owner, parts, leaf_root, fans = self._owner, self._parts, self._leaf_root, self._fans
        d1 = self.d - 1
        n_owner, n_a = len(owner), len(parts) // d1  # parts holds d-1 slots per A-number
        a_seen = {center}
        nbrs_of_b = {}
        for b in section(center):
            if (b >= n_owner or not owner[b]) and b not in leaf_root:
                nbs = nbrs_of_b[b] = [a for a in section(b) if (
                    a >= n_a or not parts[a * d1]) and a not in fans]
                a_seen.update(nbs)
        return solve_relaxed(sorted(a_seen), section, nbrs_of_b, owner, leaf_root, self.d, center)

    # -- stepping ---------------------------------------------------------

    def run_step(self) -> None:
        """Retire the least live A-vertex and close its 2-cycle if possible."""
        d1 = self.d - 1
        while self.a_removed(self._cursor):
            self._cursor += 1
        an = self._cursor
        if an in self._fans:
            leaves = self._take_fan(an)
            self._commit(an, leaves)
            least = leaves[0]
        else:
            mine = self._ball_parts(an)[an]  # sorted, length d
            self._commit(an, tuple(mine[:d1]))
            least = mine[0]
        if self.owner_of(an) == 0:
            self._close_cycle(an, least)
        self.step += 1

    def _close_cycle(self, target: int, center: int) -> None:
        """Forced-commitment chain giving b_target a partner.

        target is the B-copy (by number) of an A-vertex that was just
        retired; center is the A-copy of its least new partner, which is
        always live because its own B-copy was consumed in the same breath.
        Every iteration commits the current target; case analysis on where
        the target sits decides how, and whether the chain continues.
        """
        d = self.d
        # Only a consumed fan continues the chain, and each fan is consumed once.
        while True:
            if target in self._leaf_root:
                # The target is reserved as a fan leaf: consume that fan
                # whole, then keep going with its root in the target seat.
                root = self._leaf_root[target]
                leaves = self._take_fan(root)
                self._commit(root, leaves)
                if self.owner_of(root) != 0:
                    return
                center = min(b for b in leaves if b != target)
                target = root
                continue
            if center in self._fans:
                # The center is itself a live fan root: pair it with the
                # target plus its lowest leaves, releasing the highest leaf.
                leaves = self._take_fan(center)
                self._commit(center, tuple(sorted((target,) + leaves[:d - 2])))
                return
            parts = self._ball_parts(center)
            # target sits one edge from the center, so it is interior: it has one
            # owner, and solve_relaxed returns the list of each interior owner
            holder = next(a for a, bs in parts.items() if target in bs)
            mine = parts[center]
            if holder == center:
                # The ball matching already pairs center with target: keep
                # the target, drop one surplus partner.
                if target != mine[-1]:
                    self._commit(center, tuple(mine[:d - 1]))
                else:
                    self._commit(center, tuple(mine[1:]))
                return
            # Force the edge instead; the holder keeps its remaining ball
            # partners as a reserved fan for a later step.
            self._commit(center, tuple(sorted([target] + mine[:d - 2])))
            self._reserve_fan(holder, tuple(b for b in parts[holder] if b != target))
            return

    def _forced_step(self, query: str, vertex: int) -> None:
        """One run_step on behalf of query(vertex), unless the step budget is spent."""
        if self.step_limit is not None and self.step >= self.step_limit:
            raise MatcherBudgetError(query, vertex, self.step)
        self.run_step()

    def advance_to_step(self, n: int) -> None:
        if type(n) is not int:
            raise TypeError(f"step must be an int, got {n!r}")
        while self.step < n:
            self._forced_step("advance_to_step", n)

    # -- the match function ------------------------------------------------

    def f(self, n: int) -> int:
        """The A-number matched to b_n, running steps on demand.

        b_n is settled no later than step n; a clean progress bound, so a
        violation raises instead of looping. A settled b_n is one array read.
        """
        if n < 1:
            raise ValueError("vertices are positive")
        owner = self._owner
        if n < len(owner) and (a := owner[n]):
            return a
        while self.owner_of(n) == 0:
            if self.step > n:
                raise RuntimeError(f"progress bound broken: b_{n} unmatched after step {self.step}")
            self._forced_step("f", n)
        return self._owner[n]

    def preimages(self, a: int) -> tuple[int, ...]:
        """All n with f(n) = a: the d-1 committed partners of a_a."""
        if a < 1:
            raise ValueError("vertices are positive")
        while not self.a_removed(a):
            if self.step > a:
                raise RuntimeError(f"progress bound broken: a_{a} live after step {self.step}")
            self._forced_step("preimages", a)
        return self.partners_of(a)

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> dict:
        return json.loads(self.checkpoint_json())

    def checkpoint_json(self) -> str:
        """The format's one writer: compact JSON, keys sorted, ending in a newline.

        Keys: committed, every pair [a, b] in (a, b) order: a ascending, and each a's
        d-1 partners ascending, the one order restore reads; d; fans, each {"leaves":
        [...], "root": r}, by root; removed_a and removed_b, ascending; step. The text
        is json.dumps(..., sort_keys=True, separators=(",", ":")) + "\\n" of them,
        written off the state arrays with no object per committed pair.
        """
        d1, parts = self.d - 1, self._parts
        pairs = ",".join(f"[{{0}},{{{i}}}]" for i in range(1, d1 + 1)).format
        fans = json.dumps([{"leaves": self._fans[r], "root": r} for r in sorted(self._fans)],
                          separators=(",", ":"))
        return (f'{{"committed":[{_joined(parts, d1, pairs, d1)}],"d":{self.d},"fans":{fans},'
                f'"removed_a":[{_joined(parts, d1, str)}],"removed_b":[{_joined(self._owner, 1, str)}],'
                f'"step":{self.step}}}\n')

    @classmethod
    def restore(
        cls,
        graph: SymmetricDoubleGraph,
        h: HallWitness,
        checkpoint: dict,
        step_limit: int | None = None,
        check: bool = False,
    ) -> "HaremMatcher":
        """Rebuild a matcher from checkpoint(); ValueError on a corrupt one.

        One pass over committed, in the writer's order (see checkpoint_json),
        writes each partner slot and owner entry, refusing pairs out of that order,
        an a with other than d-1 partners and a B-number committed twice; removed_a
        and removed_b must list what it wrote. Fans pass _reserve_fan's ledger
        checks; the mirror rule (every retired A-number's B-copy is committed) and
        the step rule (step s has retired 1..s) are checked. Pairs are not looked up
        in the host, at one section per retired vertex; check=True refuses a
        non-edge with AssertionError after the structural checks. A missing key, a
        wrong type or a number past the arrays fails with KeyError, TypeError or
        IndexError, the ValueError's cause. JSON true, which equals 1, is refused
        as the step and as a vertex number.
        """
        _check_step_limit(step_limit)  # here, where its TypeError is no corrupt checkpoint
        try:
            m = cls(graph, checkpoint["d"], h, step_limit=step_limit, check=check)
            step = checkpoint["step"]
            if type(step) is not int or step < 0:
                raise ValueError(f"corrupt checkpoint: step {step!r} is not a non-negative integer")
            committed = checkpoint["committed"]
            removed_a, removed_b = list(checkpoint["removed_a"]), list(checkpoint["removed_b"])
            # Numbers outside 1..2^31-1 are refused before an array grows: slot 0 is no vertex, a negative
            # index counts from the end, array("i") has no 2^31. The lists must be sorted, so ends suffice.
            fans = [(fan["root"], tuple(fan["leaves"])) for fan in checkpoint["fans"]]
            fanned = [v for root, leaves in fans for v in (root,) + leaves]
            ends = removed_a[:1] + removed_a[-1:] + removed_b[:1] + removed_b[-1:] + fanned
            wrong = [v for v in ends if not 0 < v < 2 ** 31]
            if wrong:
                raise ValueError(f"corrupt checkpoint: vertex number {wrong[0]} is not in 1..2^31-1")
            d1, owner, parts = m.d - 1, m._owner, m._parts
            if removed_a and removed_b:
                _grow(parts, (removed_a[-1] + 1) * d1)
                _grow(owner, max(removed_a[-1], removed_b[-1]) + 1)
            seen = []  # the a's, in the order their rows begin
            last = slot = end = prev = 0  # the row's a, its next and past-last slot, its last b
            try:
                for a, b in committed:
                    if slot == end:  # a_last holds its d-1 partners, so a greater a begins
                        if a <= last:
                            break
                        seen.append(a)
                        last, prev, slot = a, 0, a * d1
                        end = slot + d1
                    elif a != last:
                        break
                    if b <= prev or owner[b]:
                        break
                    parts[slot] = prev = b
                    owner[b] = a
                    slot += 1
                else:
                    a = None
            except ValueError as exc:
                raise ValueError(f"corrupt checkpoint: a committed pair is not [a, b]: {exc}") from exc
            if a is not None or slot != end:
                raise ValueError("corrupt checkpoint: committed pairs leave the writer's order (a, b ascending, "
                                 f"d-1 per a, each b once) at {'their end' if a is None else [a, b]}")
            column = sorted(map(itemgetter(1), committed))
            if seen != removed_a or column != removed_b:
                raise ValueError("corrupt checkpoint: removed_a or removed_b disagrees with committed pairs")
            # JSON true equals 1, so it can only be a_1, whose pairs come first, or the least b. Fan
            # numbers, few, are all type-checked: past the arrays no slot read refuses a float.
            ones = [pair[0] for pair in committed[:d1]] + column[:1]
            if any(v is True for v in ones) or any(type(v) is not int for v in fanned):
                raise ValueError("corrupt checkpoint: a vertex number is no integer, or is true")
            if check:  # the invariant mode's commit test, run on a matcher that has committed nothing
                empty = cls(graph, m.d, h)
                for a in seen:
                    empty._check_commit(a, parts[a * d1:(a + 1) * d1])
            if not all(map(owner.__getitem__, removed_a)):
                raise ValueError("corrupt checkpoint: a retired A-vertex's B-copy is uncommitted")
            try:
                for root, leaves in fans:
                    m._reserve_fan(root, leaves)
            except AssertionError as exc:
                raise ValueError(f"corrupt checkpoint: {exc}") from exc
            # each step retires the least live A-vertex, so step s has retired 1..s
            if step and (step > len(removed_a) or removed_a[step - 1] != step):
                raise ValueError(f"corrupt checkpoint: step {step} has not retired 1..{step}")
            m.step, m._cursor = step, step + 1  # run_step skips retired numbers past 1..step
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"corrupt checkpoint: {exc!r}") from exc
        return m


def controlled_orbit(f: Callable[[int], int], n: int,
                     known: Mapping[int, tuple[int, int]]) -> tuple[list[int], int]:
    """n's f-orbit up to its first repeat or its first known point, and the
    index where the walk joined: where the cycle starts, or that known point.

    The package's one f-orbit walk. It checks cycle control at n through
    check_cycle_control: the orbit enters its cycle within 2n steps, and the
    cycle's period is at most max(2, n), so the repeat comes within 3n + 2
    calls of f. A violation raises CycleControlError instead of walking on.
    f is called along the orbit in order, so a lazy f settles exactly what
    the walk reads.

    known maps points whose orbits were walked before, n not among them, to
    (entry, period): the hops from that point to its cycle, and the cycle's
    length. It holds every point of each such orbit. The walk stops at the
    first known point k, which ends the orbit as orbit[first]; the new points
    before it lie off k's orbit, so the bounds are checked on entry = first +
    k's entry and k's period, and the error is the one a walk on through k's
    settled orbit would raise. Otherwise the walk ends at its first repeat,
    and f of its last point is orbit[first]. The orbit's points are distinct.
    """
    orbit = [n]
    index = {n: 0}
    x = n
    limit = 3 * n + 2
    for _ in range(limit):
        x = f(x)
        first = index.get(x)
        if first is not None:
            entry, period = first, len(orbit) - first
            break
        index[x] = len(orbit)
        orbit.append(x)
        hit = known.get(x)
        if hit is not None:
            first = len(orbit) - 1
            entry, period = first + hit[0], hit[1]
            break
    else:
        entry = period = limit  # neither a repeat nor a known point within limit calls
    check_cycle_control(n, entry, period)
    return orbit, first


def check_cycle_control(n: int, entry: int, period: int) -> None:
    """Raise CycleControlError unless n's orbit, entering its cycle after entry
    hops into a cycle of the given period, keeps cycle control: entry <= 2n and
    period <= max(2, n). Those bounds put the first repeat within 3n + 2 calls
    of f; the message is the one a walk from n raises, which says "no repeat"
    when it would have run out of calls first.
    """
    if entry > 2 * n or period > max(2, n):
        limit = 3 * n + 2
        if entry + period > limit:
            raise CycleControlError(f"cycle control broken at {n}: no repeat within {limit} steps")
        raise CycleControlError(f"cycle control broken at {n}: entry {entry}, period {period}")


def verify_cycle_control(f: Callable[[int], int], upto: int) -> dict:
    """The cycle_control report block: walk every orbit with start 2..upto
    in full through controlled_orbit, counting the periodic and the transient
    starts and listing each violation of cycle control."""
    periodic = transient = 0
    violations = []
    for n in range(2, upto + 1):
        try:
            _, k = controlled_orbit(f, n, {})
        except CycleControlError as exc:
            violations.append(str(exc))
            continue
        if k == 0:
            periodic += 1
        else:
            transient += 1
    return {"ok": not violations, "upto": upto, "periodic": periodic,
            "transient": transient, "violations": violations}
