"""Parallel Branch-and-Bound substrate for the permutation flow shop.

Interval-encoded B&B (Mezmaz et al., IPDPS 2007) with LLRK-style lower
bounds, Taillard instances, and splittable interval work descriptors.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .bounds import (JohnsonPairBound, LowerBound, MaxBound, OneMachineBound,
                         TrivialBound, get_bound)
    from .engine import BnBEngine, ExploreResult, solve_bruteforce
    from .flowshop import FlowshopInstance, make_instance
    from .interval import (digits_to_position, factorials,
                           permutation_to_position, position_to_digits,
                           position_to_permutation, prefix_block, tree_leaves)
    from .johnson import johnson_order, two_machine_makespan, two_machine_optimal
    from .state import INF, BoundState
    from .taillard import (TA_20x20_SEEDS, processing_times, scaled_instance,
                           taillard_instance, unif)
    from .work import BnBWork

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".bounds": "JohnsonPairBound LowerBound MaxBound OneMachineBound TrivialBound get_bound",
    ".engine": "BnBEngine ExploreResult solve_bruteforce",
    ".flowshop": "FlowshopInstance make_instance",
    ".interval": "digits_to_position factorials permutation_to_position position_to_digits "
                 "position_to_permutation prefix_block tree_leaves",
    ".johnson": "johnson_order two_machine_makespan two_machine_optimal",
    ".state": "INF BoundState",
    ".taillard": "TA_20x20_SEEDS processing_times scaled_instance taillard_instance unif",
    ".work": "BnBWork",
})
