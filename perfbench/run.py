#!/usr/bin/env python3
"""The hallforest benchmark: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload step_tree7 --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  step_tree7    a cold tree7 d=4 matcher advanced a fixed number of steps
  verify_tree7  `hallforest verify` on the degree-7 tree, n=40, word length 2
  resume_c6     set-up steps a tree7 d=4 matcher to 5000 steps and keeps its
                checkpoint; each operation restores it and runs acceptance
                6's sweep until the step budget stops it

Every run sets up several times (median reported as setup_s), then repeats
its operation until --seconds is used up (mean time per operation reported
as op_s). Each operation's output is
compared with the values in perfbench/expected.json; a mismatch, an
unexpected exception, a non-zero exit or a report with ok=false counts the
operation as failed. With --trace 1 the run additionally repeats one
operation with spans around every layer and prints the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record
(metadata, samples, gates, cost model). Only the standard library is used,
in a single process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SIZES = {
    "full": {"r": 7, "d": 4, "steps": 5000, "mid_step": 2500, "verify_n": 40,
             "word_len": 2, "budget": 5000},
    # small enough for perfbench/smoke.py to run every workload in seconds
    "tiny": {"r": 7, "d": 4, "steps": 200, "mid_step": 100, "verify_n": 6,
             "word_len": 1, "budget": 300},
}
VERIFY_SEED = 7  # the seed acceptance 7 replays
C6_POINTS = 100
C6_WORD_LEN = 5


class BenchFailure(Exception):
    """An operation produced output that the benchmark does not accept."""


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def fresh_import() -> SimpleNamespace:
    """Import hallforest from the checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hallforest" or n.startswith("hallforest.")]:
        del sys.modules[name]
    importlib.import_module("hallforest")
    mods = {name: importlib.import_module(f"hallforest.{name}")
            for name in ("graph", "hall", "matcher", "forest", "wobbling", "cli")}
    return SimpleNamespace(**mods)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "git_commit": git_commit(ROOT),
    }


class Run:
    """Counts operations and their failures, and keeps the gate outcomes."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: dict[str, dict] = {}
        self._gate_failed = False

    def gate(self, name: str, got, section: str, key: str) -> None:
        """Compare got with expected[section][key]; a missing or different
        value fails the operation in progress."""
        want = self.expected.get(section, {}).get(key)
        ok = want is not None and got == want
        self.gates[name] = {"expected": want, "got": got, "ok": ok}
        if not ok:
            self._gate_failed = True
            self._note(f"identity gate {name}: expected {want!r}, got {got!r}")

    def _note(self, error: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(error)

    def attempt(self, op):
        """Run one operation; None if it raised, else what it returned.

        An operation that raised or broke an identity gate counts as failed;
        the timing of one that only broke a gate is still returned.
        """
        self.attempted += 1
        self._gate_failed = False
        try:
            result = op()
        except (Exception, SystemExit) as exc:  # the cli exits 2 via SystemExit
            self.failed += 1
            self._note("".join(traceback.format_exception_only(type(exc), exc)).strip())
            return None
        if self._gate_failed:
            self.failed += 1
        return result


def repeat_for(seconds: float, run: Run, op) -> list:
    """Closed loop: start the next operation only after the last one ended.

    Stops when another operation of median length would overrun the time.
    Operations that raised are counted and leave no sample.
    """
    samples, durations = [], []
    start = perf_counter()
    while True:
        # each operation starts from a collected heap, so the collector's
        # generation counters do not carry over from the previous one
        gc.collect()
        began = perf_counter()
        result = run.attempt(op)
        durations.append(perf_counter() - began)
        if result is not None:
            samples.append(result)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return samples


def per_op(ops: list, key: str) -> float:
    """Mean of one timing over a run's operations: total time over count.

    Not the median: on a shared 2-core host the CPU alternates between two
    speeds every few tens of seconds. A run's median jumps to whichever speed
    held more than half the run; the mean follows the share of time in each.
    """
    return statistics.fmean(o[key] for o in ops)


# -- workloads -------------------------------------------------------------------


def c6_sweep(hf, forest) -> tuple[int, str, int]:
    """Acceptance 6's loop until the budget stops it: (pairs, word, point).

    alpha/beta inverse checks on 1..100 first, then reduced words by
    ascending length over 1..100; pairs counts the (word, point) pairs
    verified before MatcherBudgetError.
    """
    w = hf.wobbling
    pair = w.WobblingPair(w.EdgeLabeling(forest))
    pairs, word, n = 0, (), 0
    try:
        for n in range(1, C6_POINTS + 1):
            for step, back in ((pair.alpha, pair.alpha_inv), (pair.beta, pair.beta_inv)):
                image = step(n)
                if image not in forest.forest_neighbors(n) or back(image) != n:
                    raise BenchFailure(f"generator pair is not a forest move inverse at {n}")
        for length in range(1, C6_WORD_LEN + 1):
            for word in w.reduced_words(length):
                for n in range(1, C6_POINTS + 1):
                    if pair.apply_word(word, n) == n:
                        raise BenchFailure(f"reduced word {''.join(word)} fixes {n}")
                    pairs += 1
    except hf.matcher.MatcherBudgetError:
        return pairs, "".join(word), n
    raise BenchFailure("the sweep finished inside the step budget")


class Workload:
    """One set-up, repeated setup_reps times, and one timed operation.

    own_work() brackets the benchmark's own work inside an operation (the
    gate hashes): it is never timed, and a traced run pauses its spans there.
    """

    # a set-up that only imports takes about 40 ms, so its median needs many
    setup_reps = 15

    def __init__(self, size: dict, run: Run, tmp: Path):
        self.size, self.run, self.tmp = size, run, tmp
        self.own_work = contextlib.nullcontext


def cold_checkpoint_key(steps: int) -> tuple[str, str]:
    """Where expected.json keeps the hash of a cold tree7 d=4 checkpoint."""
    return "tree7_checkpoint_sha256", str(steps)


class StepTree7(Workload):
    """Cold stepping: fresh host and matcher, advanced to a fixed step count."""

    def setup(self) -> dict:
        began = perf_counter()
        hf = fresh_import()
        # each operation builds its own host again, so its section cache is cold
        hf.forest.double_graph(hf.forest.TreeEntourage(self.size["r"]))
        self.hf = hf
        return {"setup_s": perf_counter() - began}

    def op(self) -> dict:
        hf, s, run = self.hf, self.size, self.run
        host = hf.forest.double_graph(hf.forest.TreeEntourage(s["r"]))
        matcher = hf.matcher.HaremMatcher(host, s["d"], hf.hall.HallWitness.identity())
        began = perf_counter()
        matcher.advance_to_step(s["mid_step"])
        first = perf_counter() - began
        with self.own_work():
            run.gate("mid_checkpoint_sha256", sha256(matcher.checkpoint_json()),
                     *cold_checkpoint_key(s["mid_step"]))
        began = perf_counter()
        matcher.advance_to_step(s["steps"])
        stepping = first + perf_counter() - began
        with self.own_work():
            run.gate("end_checkpoint_sha256", sha256(matcher.checkpoint_json()),
                     *cold_checkpoint_key(s["steps"]))
        return {"op_s": stepping, "steps": matcher.step, "bytes_written": 0}

    def end_to_end(self, setups: list, ops: list) -> dict:
        op_s = per_op(ops, "op_s")
        return {"op_s": op_s, "steps_per_s": self.size["steps"] / op_s}

    def cost_model(self, setups: list, ops: list, layers: dict | None) -> dict:
        model = {"steps": self.size["steps"]}
        if layers:
            model["max_label_per_step"] = layers["matcher.max_label"] / self.size["steps"]
            model["section_calls_per_step"] = layers["graph.section_calls"] / self.size["steps"]
        return model


class VerifyTree7(Workload):
    """`hallforest verify` called in-process, as acceptance 7 does."""

    def __init__(self, size: dict, run: Run, tmp: Path):
        super().__init__(size, run, tmp)
        self.out = tmp / "verify"

    def setup(self) -> dict:
        began = perf_counter()
        hf = fresh_import()
        code = hf.cli.main(["gen-tree", "--r", str(self.size["r"]), "--out", str(self.tmp)])
        if code != 0:
            raise BenchFailure(f"gen-tree exited {code}")
        self.hf = hf
        return {"setup_s": perf_counter() - began}

    def op(self) -> dict:
        s, run = self.size, self.run
        report_path, checkpoint_path = self.out / "report.json", self.out / "checkpoint.json"
        for path in (report_path, checkpoint_path):
            path.unlink(missing_ok=True)
        argv = ["verify", "--space", str(self.tmp / "descriptor.json"), "--d", str(s["d"]),
                "--n", str(s["verify_n"]), "--word-len", str(s["word_len"]),
                "--seed", str(VERIFY_SEED), "--out", str(self.out)]
        began = perf_counter()
        code = self.hf.cli.main(argv)
        elapsed = perf_counter() - began
        report, checkpoint = report_path.read_bytes(), checkpoint_path.read_bytes()
        if code != 0:
            raise BenchFailure(f"verify exited {code}")
        if json.loads(report)["ok"] is not True:
            raise BenchFailure("verify reported ok=false")
        key = f"n={s['verify_n']},word_len={s['word_len']}"
        run.gate("report_sha256", sha256(report), "verify_tree7", f"report_sha256@{key}")
        run.gate("checkpoint_sha256", sha256(checkpoint), "verify_tree7",
                 f"checkpoint_sha256@{key}")
        steps = json.loads(checkpoint)["step"]
        return {"op_s": elapsed, "steps": steps, "bytes_written": len(report) + len(checkpoint)}

    def end_to_end(self, setups: list, ops: list) -> dict:
        op_s = per_op(ops, "op_s")
        return {"op_s": op_s, "steps_per_s": ops[0]["steps"] / op_s}

    def cost_model(self, setups: list, ops: list, layers: dict | None) -> dict:
        model = {"steps": ops[0]["steps"] if ops else None}
        if layers:
            for check in ("cycle_control", "forest", "wobbling"):
                model[f"steps.{check}"] = layers[f"verify.steps.{check}"]
        return model


class ResumeC6(Workload):
    """Restore a budget-B checkpoint and sweep criterion 6 until the budget."""

    setup_reps = 3

    def setup(self) -> dict:
        # the program's own stepping to B and its checkpoint, as a user
        # resuming a criterion-6 sweep would have produced them
        s = self.size
        began = perf_counter()
        hf = fresh_import()
        host = hf.forest.double_graph(hf.forest.TreeEntourage(s["r"]))
        matcher = hf.matcher.HaremMatcher(host, s["d"], hf.hall.HallWitness.identity())
        stepping = perf_counter()
        matcher.advance_to_step(s["budget"])
        stepped = perf_counter()
        text = matcher.checkpoint_json()
        elapsed = perf_counter() - began
        self.run.gate("budget_checkpoint_sha256", sha256(text), *cold_checkpoint_key(s["budget"]))
        self.hf, self.checkpoint = hf, json.loads(text)
        return {"setup_s": elapsed, "stepping_s": stepped - stepping}

    def op(self) -> dict:
        hf, s = self.hf, self.size
        began = perf_counter()
        forest = hf.forest.ForestFunction(hf.forest.TreeEntourage(s["r"]), s["d"],
                                          step_limit=s["budget"])
        forest.matcher = hf.matcher.HaremMatcher.restore(
            forest.matcher.graph, hf.hall.HallWitness.identity(), self.checkpoint,
            step_limit=s["budget"])
        restored = perf_counter()
        stop = c6_sweep(hf, forest)
        ended = perf_counter()
        self.run.gate("c6_stop", list(stop), "resume_c6", f"c6_stop@{s['budget']}")
        return {"op_s": ended - began, "restore_s": restored - began,
                "c6_stop": list(stop), "steps": 0, "bytes_written": 0}

    def end_to_end(self, setups: list, ops: list) -> dict:
        # steps_per_s here is the restore path's rate: checkpointed steps
        # brought back per second of HaremMatcher.restore
        return {"op_s": per_op(ops, "op_s"),
                "steps_per_s": self.size["budget"] / per_op(ops, "restore_s")}

    def cost_model(self, setups: list, ops: list, layers: dict | None) -> dict:
        return {
            "budget": self.size["budget"],
            "stepping_s": statistics.median(x["stepping_s"] for x in setups),
            "restore_s": per_op(ops, "restore_s") if ops else None,
            "c6_stop": ops[0]["c6_stop"] if ops else None,
            "c6_pairs": ops[0]["c6_stop"][0] if ops else None,
        }


WORKLOADS = {"step_tree7": StepTree7, "verify_tree7": VerifyTree7, "resume_c6": ResumeC6}


# -- command line ------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="recorded with the run; the workloads' inputs are fixed")
    p.add_argument("--seconds", type=float, required=True, help="time to spend on the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also trace one operation and print per-layer metrics")
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    # measure the checkout's sources, never an installed copy
    src = ROOT / "src"
    if not (src / "hallforest" / "__init__.py").is_file():
        print(f"no hallforest sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("hallforest.cli")
    except ImportError as exc:
        print(f"cannot import hallforest from {src}: {exc}", file=sys.stderr)
        return 2
    import spans

    size = SIZES[args.size]
    run = Run(expected)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](size, run, Path(tmp))
        setups = [x for x in (run.attempt(workload.setup) for _ in range(workload.setup_reps))
                  if x is not None]
        if not setups:
            print(f"set-up failed: {run.errors}", file=sys.stderr)
            return 1
        ops = repeat_for(args.seconds, run, workload.op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_op = layers = table = None
        if args.trace:
            tracer = spans.Tracer(workload.hf)
            workload.own_work = tracer.paused
            tracer.install()
            try:
                began = perf_counter()
                traced = run.attempt(workload.op)
                traced_op = perf_counter() - began
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(traced["bytes_written"] if traced else 0)
            table = tracer.span_table()

    untraced_op = per_op(ops, "op_s") if ops else None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "meta": metadata(),
        "wall": {
            "untraced_op_s": untraced_op,
            "traced_op_s": traced_op,
            "tracing_overhead": traced_op / untraced_op if traced_op and untraced_op else None,
        },
        "samples": {"setup_s": [x["setup_s"] for x in setups],
                    "op_s": [o["op_s"] for o in ops]},
        "gates": run.gates, "errors": run.errors,
        "cost_model": workload.cost_model(setups, ops, layers),
        "spans": table,
    }
    if args.trace:
        values = layers
        declared = spec["per_layer"]
    else:
        values = workload.end_to_end(setups, ops) if ops else {}
        values.update(setup_s=statistics.median(x["setup_s"] for x in setups),
                      peak_rss_mb=peak_rss_mb)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    correct = run.failed == 0 and len(metrics) == len(declared)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
