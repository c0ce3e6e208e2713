"""The suite's warning filters report a failing property test as a failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CHILD = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 10


@given(st.integers())
def test_a_property_that_holds(n):
    assert n == n


def test_a_deprecation_is_still_an_error():
    warnings.warn("an old call", DeprecationWarning)
'''


def test_a_failing_property_test_is_reported(tmp_path):
    # On a failure Hypothesis imports libcst, where installed, to explain the
    # example, and that import warns DeprecationWarning; turned into an error it
    # ended the run in INTERNALERROR with no failure report.
    (tmp_path / "test_child.py").write_text(CHILD)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
    assert "FAILED test_child.py::test_a_property_that_fails" in run.stdout
    assert "FAILED test_child.py::test_a_deprecation_is_still_an_error" in run.stdout
