"""Experiment scales: how big a reproduction run should be.

The paper's workloads need hundreds of CPU-days; a scale maps each
experiment onto instances a Python simulation can traverse while keeping
the qualitative regime (DESIGN.md §2). Four scales:

* ``micro``   — a few seconds total; structural tests of the harness.
* ``quick``   — minutes; used by CI and the pytest benchmarks.
* ``default`` — ~1-2 hours; the sizes EXPERIMENTS.md was produced with.
* ``full``    — several hours; default sizes with the paper's 10 trials
  and the paper's full worker counts everywhere.

All B&B experiment runs (and their sequential references) are NEH
warm-started — on the paper's day-long instances the from-scratch bound
converges almost immediately, and warm-starting reproduces that regime on
scaled instances (see :mod:`repro.bnb.neh`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.bnb_app import BnBApplication
from ..apps.uts_app import UTSApplication
from ..bnb.taillard import scaled_instance
from ..sim.errors import SimConfigError
from .specs import BnBSpec, UTSSpec


@dataclass(frozen=True)
class Scale:
    """Sizing knobs of one reproduction scale."""

    name: str
    trials: int
    #: trials for the big scaling sweeps (figs 4, 5) — they dominate wall
    #: time, and the simulator is deterministic per seed anyway
    scaling_trials: int = 1
    # B&B instance shapes: (jobs, machines); "big" is for the scaling
    # figures (4, 5) that go to 1000 workers, "std" for everything else
    bnb_std: tuple[int, int] = (10, 10)
    bnb_big: tuple[int, int] = (12, 10)
    uts_main: str = "bin_large"     # Table I / Fig 5 bottom
    uts_fig2: str = "bin_small"     # Fig 2 bottom
    bnb_quantum: int = 8
    uts_quantum: int = 256
    # worker counts per experiment (paper values at default/full)
    table1_n: tuple[int, ...] = (100, 200)
    fig1_n: int = 500
    fig2_n: int = 200
    fig2_uts_n: tuple[int, ...] = (16, 32, 48, 64, 80, 96, 112, 128)
    table2_n: int = 200
    fig3_n: int = 200
    fig45_n: tuple[int, ...] = (200, 600, 1000)
    fig5_uts_n: tuple[int, ...] = (128, 256, 512)
    seed: int = 42


SCALES: dict[str, Scale] = {
    "micro": Scale(
        name="micro", trials=1, scaling_trials=1,
        bnb_std=(7, 5), bnb_big=(8, 5),
        uts_main="bin_mini", uts_fig2="bin_mini",
        bnb_quantum=16, uts_quantum=64,
        table1_n=(6, 12),
        fig1_n=16,
        fig2_n=10, fig2_uts_n=(4, 8),
        table2_n=12, fig3_n=12,
        fig45_n=(8, 16),
        fig5_uts_n=(4, 8),
    ),
    "quick": Scale(
        name="quick", trials=2, scaling_trials=1,
        bnb_std=(9, 8), bnb_big=(10, 8),
        uts_main="bin_tiny", uts_fig2="bin_tiny",
        table1_n=(24, 48),
        fig1_n=60,
        fig2_n=32, fig2_uts_n=(8, 16, 24, 32),
        table2_n=32, fig3_n=32,
        fig45_n=(32, 64, 128),
        fig5_uts_n=(16, 32, 64),
    ),
    "default": Scale(name="default", trials=3, scaling_trials=1),
    "full": Scale(
        name="full", trials=10, scaling_trials=3,
        fig45_n=(200, 400, 600, 800, 1000),
        fig5_uts_n=(128, 192, 256, 320, 384, 448, 512),
    ),
}


def get_scale(name: str) -> Scale:
    """Look a scale up by name (micro / quick / default / full)."""
    if name not in SCALES:
        raise SimConfigError(f"unknown scale {name!r}; known: {sorted(SCALES)}")
    return SCALES[name]


#: The ten Flowshop instances of the paper (Ta21..Ta30), scaled.
def bnb_instances(scale: Scale, big: bool = False):
    jobs, machines = scale.bnb_big if big else scale.bnb_std
    return [scaled_instance(k, n_jobs=jobs, n_machines=machines)
            for k in range(1, 11)]


def bnb_spec(scale: Scale, index: int, big: bool = False) -> BnBSpec:
    """Picklable spec for Ta(20+index) at this scale (NEH warm-started)."""
    jobs, machines = scale.bnb_big if big else scale.bnb_std
    return BnBSpec(index, n_jobs=jobs, n_machines=machines, warm_start=True)


def uts_spec(scale: Scale, which: str = "main") -> UTSSpec:
    """Picklable spec for the scale's UTS instance (main or fig2)."""
    name = scale.uts_main if which == "main" else scale.uts_fig2
    return UTSSpec(name)


def bnb_app(scale: Scale, index: int, big: bool = False) -> BnBApplication:
    """Application for Ta(20+index) at this scale (NEH warm-started)."""
    return bnb_spec(scale, index, big=big).build()


def uts_app(scale: Scale, which: str = "main") -> UTSApplication:
    return uts_spec(scale, which).build()


__all__ = ["Scale", "SCALES", "get_scale", "bnb_instances", "bnb_app",
           "bnb_spec", "uts_app", "uts_spec"]
