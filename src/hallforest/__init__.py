"""Perfect (1, d-1)-matchings with cycle control, and what they build.

The package constructs, one computable step at a time, a matching on the
bipartite double of a symmetric relation in which every point of one side
keeps exactly d-1 partners, the induced self-map has tightly bounded
cycles, and the leftovers assemble into d-regular forests and pairs of
bounded-displacement permutations acting freely.
"""

from .graph import SymmetricDoubleGraph, is_A_reflected
from .hall import HallWitness, InfeasibleMatchingError, solve_relaxed
from .matcher import HaremMatcher, MatcherBudgetError
from .forest import (
    Entourage,
    ForestFunction,
    TreeEntourage,
    check_expansion,
    double_graph,
    verify_cycle_control,
    verify_forest,
)
from .wobbling import (
    EdgeLabeling,
    WobblingPair,
    reduced_words,
    verify_free_semiregular,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeLabeling",
    "Entourage",
    "ForestFunction",
    "HallWitness",
    "HaremMatcher",
    "InfeasibleMatchingError",
    "MatcherBudgetError",
    "SymmetricDoubleGraph",
    "TreeEntourage",
    "WobblingPair",
    "check_expansion",
    "double_graph",
    "is_A_reflected",
    "reduced_words",
    "solve_relaxed",
    "verify_cycle_control",
    "verify_forest",
    "verify_free_semiregular",
    "__version__",
]
