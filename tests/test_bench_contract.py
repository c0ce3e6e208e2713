"""The benchmark's tracer still finds every entry point it wraps.

perfbench/spans.py wraps methods on their classes and functions in the
namespace of the module that calls them. A refactor that moves one of them
breaks the traced benchmark runs without failing any other test, so this
installs the tracer on the package, runs a little of each workload and
checks that every per-layer metric of BENCHMARK.json comes out.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from hallforest import cli, forest, graph, hall, matcher, wobbling

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(hf) -> dict:
    """Everything the tracer may replace, keyed by (owner, attribute)."""
    owners = [hf.graph.SymmetricDoubleGraph, hf.matcher.HaremMatcher,
              hf.forest.ForestFunction, hf.wobbling.EdgeLabeling,
              hf.wobbling.WobblingPair, hf.matcher, hf.cli]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_tracer_reports_every_declared_layer_metric(tmp_path):
    spans = load_spans()
    hf = SimpleNamespace(graph=graph, hall=hall, matcher=matcher, forest=forest,
                         wobbling=wobbling, cli=cli)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    before = wrapped_attributes(hf)
    tracer = spans.Tracer(hf)
    tracer.install()
    ball_parts = matcher.HaremMatcher._ball_parts
    balls = []

    def counted(self, center):
        balls.append(center)
        return ball_parts(self, center)

    matcher.HaremMatcher._ball_parts = counted
    try:
        host = forest.double_graph(forest.TreeEntourage(7))
        m = matcher.HaremMatcher(host, 4, hall.HallWitness.identity())
        m.advance_to_step(50)
        f = forest.ForestFunction(forest.TreeEntourage(7), 4, step_limit=5000)
        f.matcher = matcher.HaremMatcher.restore(
            f.matcher.graph, hall.HallWitness.identity(), json.loads(m.checkpoint_json()),
            step_limit=5000)
        assert f.forest_neighbors(1) == (2, 3, 4, 15)
        assert cli.main(["gen-tree", "--r", "7", "--out", str(tmp_path)]) == 0
        assert cli.main(["verify", "--space", str(tmp_path / "descriptor.json"), "--d", "4",
                         "--n", "6", "--word-len", "1", "--out", str(tmp_path / "v")]) == 0
    finally:
        matcher.HaremMatcher._ball_parts = ball_parts
        tracer.uninstall()
    metrics = tracer.layer_metrics(0)
    assert set(declared) <= set(metrics)
    # each ball is solved by one call of the traced solve_relaxed, so the hall.*
    # metrics see the whole solve and no ball is solved past the tracer
    assert metrics["hall.solve_calls"] == len(balls) >= 50
    for name in ("graph.section_calls", "hall.solve_calls", "hall.ball_a_mean", "hall.ball_b_mean",
                 "matcher.steps", "matcher.restore_s",
                 "forest.calls", "forest.forced_steps", "wobbling.directions_calls",
                 "wobbling.pairs", "verify.steps.cycle_control"):
        assert metrics[name] > 0, name
    assert wrapped_attributes(hf) == before
