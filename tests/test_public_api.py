"""The package root exports exactly what it imports for its users."""

from __future__ import annotations

import importlib
import pkgutil
import types

import hallforest


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
    assert not hasattr(hallforest.Matching, "to_json") and not hasattr(hallforest.Matching, "to_dot")
