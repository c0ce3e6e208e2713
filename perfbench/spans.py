"""Span tracing around the public entry points of each hallforest layer.

A Tracer wraps functions where their callers look them up (class methods on
the class, module functions in the namespace of the module that calls them),
so nothing under src/ changes. Spans nest: a span's self time is its
duration minus the time its direct child spans cover. Spans are aggregated
per name as they close (calls, inclusive seconds, self seconds) rather than
stored one by one, because the graph layer alone opens hundreds of
thousands of spans per run.

Usage:
    tracer = Tracer(hf)          # hf: the namespace built by run.fresh_import
    tracer.install()
    ...                          # run one operation
    with tracer.paused():
        ...                      # the benchmark's own work, not traced
    tracer.uninstall()
    tracer.layer_metrics(bytes_written)  # the per-layer metrics of BENCHMARK.json
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

GRAPH_SPANS = ("graph.neighbors_a", "graph.neighbors_b", "graph.adjacent",
               "graph.degree_a", "graph.degree_b")
FOREST_SPANS = ("forest.f_star", "forest.f_star_path", "forest.f_star_preimages",
                "forest.classify", "forest.least_transient_preimage",
                "forest.path_to_root")
WOBBLING_SPANS = ("wobbling.directions", "wobbling.apply_word")
CLI_SPANS = ("cli.main", "cli.cmd_verify")
# The three top-level checks of `hallforest verify`; matcher steps forced
# while one of them runs are charged to it.
CHECK_SPANS = {
    "verify_cycle_control": "verify.steps.cycle_control",
    "verify_forest": "verify.steps.forest",
    "verify_free_semiregular": "verify.steps.wobbling",
}


class Tracer:
    def __init__(self, hf):
        self.hf = hf
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {
            "hall.ball_a": 0, "hall.ball_b": 0, "hall.infeasible": 0,
            "matcher.checkpoint_bytes": 0, "forest.forced_steps": 0,
            **{c: 0 for c in CHECK_SPANS.values()},
        }
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._hosts: list = []  # hosts built while installed, for cache_info()
        self._matchers: list = []  # matchers built while installed, for max_label
        self._forest_open = 0
        self._check: str | None = None

    # -- wrapping -------------------------------------------------------------

    def _span(self, name, fn, enter=None, leave=None, after=None, error=None):
        """fn wrapped in a span; the hooks see arguments, result and errors."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - child[0]
                if leave is not None:
                    leave()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _method(self, cls, attr: str, name: str, **hooks) -> None:
        self._patch(cls, attr, self._span(name, cls.__dict__[attr], **hooks))

    def _function(self, module, attr: str, name: str, **hooks) -> None:
        self._patch(module, attr, self._span(name, getattr(module, attr), **hooks))

    # -- hooks ----------------------------------------------------------------

    def _on_step(self, args) -> None:
        counts = self.counts
        if self._forest_open:
            counts["forest.forced_steps"] += 1
        if self._check:
            counts[CHECK_SPANS[self._check]] += 1

    def _on_solve(self, args) -> None:
        self.counts["hall.ball_a"] += len(args[0])
        self.counts["hall.ball_b"] += len(args[2])

    def _on_infeasible(self, exc: Exception) -> None:
        if isinstance(exc, self.hf.hall.InfeasibleMatchingError):
            self.counts["hall.infeasible"] += 1

    def _forest_enter(self, args) -> None:
        self._forest_open += 1

    def _forest_leave(self) -> None:
        self._forest_open -= 1

    def _check_span(self, module, attr: str) -> None:
        def enter(args):
            self._check = attr

        def leave():
            self._check = None

        self._function(module, attr, f"check.{attr}", enter=enter, leave=leave)

    # -- install / uninstall ----------------------------------------------------

    def _keep_instances(self, cls, into: list) -> None:
        """Remember every instance of cls built while installed."""
        original = cls.__dict__["__init__"]

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)

        self._patch(cls, "__init__", functools.wraps(original)(init))

    def install(self) -> None:
        hf = self.hf
        host_cls = hf.graph.SymmetricDoubleGraph
        self._keep_instances(host_cls, self._hosts)
        for name in GRAPH_SPANS:
            attr = name.split(".", 1)[1]
            self._method(host_cls, attr, name)

        # the matcher looks solve_relaxed up in its own namespace
        self._function(hf.matcher, "solve_relaxed", "hall.solve_relaxed",
                       enter=self._on_solve, error=self._on_infeasible)

        matcher_cls = hf.matcher.HaremMatcher
        self._keep_instances(matcher_cls, self._matchers)
        self._method(matcher_cls, "run_step", "matcher.run_step", enter=self._on_step)
        restore = matcher_cls.__dict__["restore"]
        self._patch(matcher_cls, "restore",
                    classmethod(self._span("matcher.restore", restore.__func__)))
        self._method(matcher_cls, "checkpoint", "matcher.checkpoint")

        def count_bytes(args, result):
            self.counts["matcher.checkpoint_bytes"] += len(result.encode())

        self._method(matcher_cls, "checkpoint_json", "matcher.checkpoint_json", after=count_bytes)

        forest_cls = hf.forest.ForestFunction
        for name in FOREST_SPANS:
            self._method(forest_cls, name.split(".", 1)[1], name,
                         enter=self._forest_enter, leave=self._forest_leave)

        self._method(hf.wobbling.EdgeLabeling, "directions", "wobbling.directions")
        self._method(hf.wobbling.WobblingPair, "apply_word", "wobbling.apply_word")

        # the cli looks its entry points and checks up in its own namespace
        cli = hf.cli
        self._function(cli, "main", "cli.main")
        self._function(cli, "cmd_verify", "cli.cmd_verify")
        self._function(cli, "check_expansion", "cli.check_expansion")
        self._function(cli, "is_A_reflected", "cli.is_A_reflected")
        for attr in CHECK_SPANS:
            self._check_span(cli, attr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the block on the unwrapped functions, then wrap them again."""
        wrappers = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, wrapper in wrappers:
                setattr(owner, attr, wrapper)

    # -- results -----------------------------------------------------------------

    def _sum(self, names, column: int):
        return sum(self.totals[n][column] for n in names if n in self.totals)

    def layer_metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of everything traced since install()."""
        hits = misses = 0
        for host in self._hosts:
            info = getattr(host.section, "cache_info", None)
            if info is not None:
                stats = info()
                hits += stats.hits
                misses += stats.misses
        self._hosts.clear()
        # the largest B-number any matcher built during the operation committed
        max_label = max((max(m.removed_b_set(), default=0) for m in self._matchers), default=0)
        self._matchers.clear()
        counts = self.counts
        solves = self._sum(["hall.solve_relaxed"], 0)
        return {
            "graph.section_calls": self._sum(GRAPH_SPANS, 0),
            "graph.section_s": self._sum(GRAPH_SPANS, 1),
            "graph.lru_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "hall.solve_calls": solves,
            "hall.solve_s": self._sum(["hall.solve_relaxed"], 1),
            "hall.ball_a_mean": counts["hall.ball_a"] / solves if solves else 0.0,
            "hall.ball_b_mean": counts["hall.ball_b"] / solves if solves else 0.0,
            "hall.infeasible": counts["hall.infeasible"],
            "matcher.steps": self._sum(["matcher.run_step"], 0),
            "matcher.step_self_s": self._sum(["matcher.run_step"], 2),
            "matcher.restore_s": self._sum(["matcher.restore"], 1),
            "matcher.checkpoint_s": self._sum(["matcher.checkpoint", "matcher.checkpoint_json"], 2),
            "matcher.checkpoint_bytes": counts["matcher.checkpoint_bytes"],
            "matcher.max_label": max_label,
            "forest.calls": self._sum(FOREST_SPANS, 0),
            "forest.self_s": self._sum(FOREST_SPANS, 2),
            "forest.forced_steps": counts["forest.forced_steps"],
            "wobbling.directions_calls": self._sum(["wobbling.directions"], 0),
            "wobbling.pairs": self._sum(["wobbling.apply_word"], 0),
            "wobbling.self_s": self._sum(WOBBLING_SPANS, 2),
            "cli.self_s": self._sum(CLI_SPANS, 2),
            "cli.expansion_s": self._sum(["cli.check_expansion"], 1),
            "cli.reflected_s": self._sum(["cli.is_A_reflected"], 1),
            "cli.bytes_written": bytes_written,
            **{name: counts[name] for name in CHECK_SPANS.values()},
        }

    def span_table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())}
