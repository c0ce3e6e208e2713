"""Smoke test of the benchmark itself, at the tiny size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced and checks that each metric named
in BENCHMARK.json prints with its unit, that a tampered expected hash makes
the run count failed operations, and that the benchmark refuses to run
without the program's sources. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def copy_checkout(dest: Path, with_sources: bool) -> None:
    """BENCHMARK.json and the benchmark's files, and src/ if with_sources."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout.splitlines()[-2])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in declared}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)

    def test_tampered_hash_counts_failures(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            copy_checkout(root, with_sources=True)
            path = root / "perfbench" / "expected.json"
            expected = json.loads(path.read_text())
            expected["tree7_checkpoint_sha256"]["200"] = "0" * 64
            path.write_text(json.dumps(expected))
            proc = bench(root, "step_tree7", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            copy_checkout(bare, with_sources=False)
            proc = bench(bare, "step_tree7", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
