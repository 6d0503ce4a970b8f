"""repro — Overlay-Centric Load Balancing (CLUSTER 2012), full reproduction.

Public API tour:

* ``repro.sim`` — deterministic message-passing simulator (the testbed).
* ``repro.overlay`` — TD/TR/BTD overlays, converge-cast, metrics.
* ``repro.work`` — splittable work + sharing policies (the paper's
  subtree-proportional rule and the steal-half/steal-k baselines).
* ``repro.uts`` — Unbalanced Tree Search (binomial/geometric).
* ``repro.bnb`` — interval-encoded Flowshop Branch-and-Bound.
* ``repro.apps`` — application adapters for the worker framework.
* ``repro.core`` — the overlay-centric load-balancing protocol.
* ``repro.baselines`` — RWS, Master-Worker, AHMW.
* ``repro.experiments`` — every table and figure of the paper.

Quickstart::

    from repro import RunConfig, run_once, UTSApplication, get_uts_preset
    result = run_once(RunConfig(protocol="BTD", n=64, dmax=10),
                      UTSApplication(get_uts_preset("bin_tiny").params))
    print(result.makespan, result.total_units)
"""

from ._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .apps import BnBApplication, SyntheticApplication, UTSApplication
    from .bnb import (BnBEngine, FlowshopInstance, scaled_instance,
                      taillard_instance)
    from .core import OCLBConfig, OverlayWorker, WorkerConfig
    from .experiments.runner import (ExperimentResult, RunConfig, TrialStats,
                                     run_once, run_trials)
    from .overlay import (BridgedTreeOverlay, TreeOverlay, add_bridges,
                          deterministic_tree, random_tree)
    from .sim import Simulator, grid5000, uniform_network
    from .uts import UTSParams
    from .uts import get_preset as get_uts_preset

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".apps": "BnBApplication SyntheticApplication UTSApplication",
    ".bnb": "BnBEngine FlowshopInstance scaled_instance taillard_instance",
    ".core": "OCLBConfig OverlayWorker WorkerConfig",
    ".experiments.runner": "ExperimentResult RunConfig TrialStats run_once run_trials",
    ".overlay": "BridgedTreeOverlay TreeOverlay add_bridges deterministic_tree random_tree",
    ".sim": "Simulator grid5000 uniform_network",
    ".uts": "UTSParams get_uts_preset=get_preset",
})
__all__.append("__version__")
