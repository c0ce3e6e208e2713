"""The package root exports exactly what it imports for its users."""

from __future__ import annotations

import importlib
import pkgutil
import types

import hallforest

import oracles

# the pipeline: host oracle, ball solver, matcher, forest step, labels and
# wobbling pair, with their checks and errors
PIPELINE = {
    "SymmetricDoubleGraph", "is_A_reflected",
    "HallWitness", "InfeasibleMatchingError", "solve_relaxed",
    "HaremMatcher", "MatcherBudgetError", "verify_cycle_control",
    "Entourage", "TreeEntourage", "double_graph", "check_expansion",
    "ForestFunction", "verify_forest",
    "EdgeLabeling", "WobblingPair", "reduced_words", "verify_free_semiregular",
    "__version__",
}


def test_all_is_exactly_the_pipeline():
    assert set(hallforest.__all__) == PIPELINE


def test_all_names_exactly_the_public_imports():
    public = {name for name, value in vars(hallforest).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(hallforest.__all__) == len(set(hallforest.__all__))
    assert set(hallforest.__all__) - {"__version__"} == public
    for name in hallforest.__all__:
        assert hasattr(hallforest, name)


def test_only_the_cli_and_the_matcher_write_json():
    # the CLI owns every artifact format; the matcher keeps the checkpoint
    # format, which its restore reads back
    importers = {info.name for info in pkgutil.iter_modules(hallforest.__path__)
                 if "json" in vars(importlib.import_module(f"hallforest.{info.name}"))}
    assert importers == {"cli", "matcher"}


def test_no_serializers_in_the_public_api():
    serializers = {"forest_to_json", "forest_to_dot", "wobble_to_json", "wobble_to_dot"}
    assert not serializers & set(hallforest.__all__)
    assert not hasattr(oracles.Matching, "to_json") and not hasattr(oracles.Matching, "to_dot")
