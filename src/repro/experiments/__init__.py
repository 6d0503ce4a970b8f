"""Reproduction harness: one module per table/figure of the paper.

``python -m repro.experiments --all --scale quick`` regenerates everything;
``--jobs N`` fans the grids out over N worker processes and finished cells
are memoised on disk (``--no-cache`` to disable).  See
:mod:`repro.experiments.registry` for the experiment index,
:mod:`repro.experiments.parallel` for the grid runner and DESIGN.md §4 for
what each experiment shows.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .base import ExperimentReport
    from .cache import ResultCache
    from .config import SCALES, Scale, get_scale
    from .parallel import ExperimentGrid, run_cells
    from .registry import EXPERIMENTS, ORDER, get_experiment
    from .runner import (PROTOCOLS, ExperimentResult, RunConfig, TrialStats,
                         build_workers, cell_configs, run_once, run_trials)
    from .specs import BnBSpec, UTSSpec

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".base": "ExperimentReport",
    ".cache": "ResultCache",
    ".config": "SCALES Scale get_scale",
    ".parallel": "ExperimentGrid run_cells",
    ".registry": "EXPERIMENTS ORDER get_experiment",
    ".runner": "PROTOCOLS ExperimentResult RunConfig TrialStats "
               "build_workers cell_configs run_once run_trials",
    ".specs": "BnBSpec UTSSpec",
})
