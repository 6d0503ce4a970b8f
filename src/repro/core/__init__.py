"""The paper's contribution: overlay-centric load balancing."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .config import OCLBConfig
    from .oclb import BRIDGE, DOWN, REQ, UP, OverlayWorker
    from .termination import TerminationWaves
    from .worker import BOUND, WORK, WorkerConfig, WorkerProcess

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".config": "OCLBConfig",
    ".oclb": "BRIDGE DOWN REQ UP OverlayWorker",
    ".termination": "TerminationWaves",
    ".worker": "BOUND WORK WorkerConfig WorkerProcess",
})
