"""Deterministic discrete-event simulator of message-passing processes.

This package is the hardware substitute for the paper's Grid'5000 testbed:
virtual CPUs with non-preemptive occupancy, a priced network (latency,
bandwidth, per-message handler cost, optional jitter) and exact, reproducible
virtual time. See DESIGN.md §2 and §6 for the model and its justification.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .engine import Simulator
    from .errors import SimConfigError, SimDeadlockError, SimError, SimRuntimeError
    from .events import Event, EventQueue
    from .faults import FaultController, FaultPlan
    from .messages import HEADER_BYTES, Message, sized
    from .network import ClusterSpec, NetworkModel, grid5000, uniform_network
    from .process import SimProcess
    from .rng import RngStream, derive_seed, mix64, spawn_numpy, splitmix64
    from .stats import ProcessStats, RunStats

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".engine": "Simulator",
    ".errors": "SimConfigError SimDeadlockError SimError SimRuntimeError",
    ".events": "Event EventQueue",
    ".faults": "FaultController FaultPlan",
    ".messages": "HEADER_BYTES Message sized",
    ".network": "ClusterSpec NetworkModel grid5000 uniform_network",
    ".process": "SimProcess",
    ".rng": "RngStream derive_seed mix64 spawn_numpy splitmix64",
    ".stats": "ProcessStats RunStats",
})
