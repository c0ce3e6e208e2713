"""The package root exports exactly what it imports for its users."""

from __future__ import annotations

import types

import hallforest


def test_all_names_exactly_the_public_imports():
    public = {name for name, value in vars(hallforest).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(hallforest.__all__) == len(set(hallforest.__all__))
    assert set(hallforest.__all__) - {"__version__"} == public
    for name in hallforest.__all__:
        assert hasattr(hallforest, name)
