"""Application adapters binding workloads to the worker framework."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .base import Application, ProcessOutcome
    from .bnb_app import BNB_UNIT_COST, BnBApplication
    from .synthetic import SyntheticApplication, SyntheticWork
    from .uts_app import UTS_UNIT_COST, UTSApplication

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".base": "Application ProcessOutcome",
    ".bnb_app": "BNB_UNIT_COST BnBApplication",
    ".synthetic": "SyntheticApplication SyntheticWork",
    ".uts_app": "UTS_UNIT_COST UTSApplication",
})
