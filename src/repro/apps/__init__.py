"""Application adapters binding workloads to the worker framework."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .base import Application, ProcessOutcome
    from .bnb_app import BnBApplication
    from .synthetic import SyntheticApplication, SyntheticWork
    from .uts_app import UTSApplication

#: Default virtual cost of one UTS node expansion (seconds). Comparable to
#: the original benchmark's per-node cost on the paper's Xeons.
UTS_UNIT_COST = 5e-6

#: Default virtual cost of one bound evaluation (seconds). The real LLRK
#: bound on a 20x20 instance costs ~100-300 microseconds on the paper's
#: hardware; we price our scaled instances at the same order so the
#: compute/communication ratio matches (DESIGN.md §6).
BNB_UNIT_COST = 2e-4

__getattr__, __dir__, _lazy_all = lazy(__name__, {
    ".base": "Application ProcessOutcome",
    ".bnb_app": "BnBApplication",
    ".synthetic": "SyntheticApplication SyntheticWork",
    ".uts_app": "UTSApplication",
})
__all__ = [*_lazy_all, "BNB_UNIT_COST", "UTS_UNIT_COST"]
