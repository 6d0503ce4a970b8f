"""Shared plumbing for the table/figure reproduction modules."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from .config import Scale
from .parallel import ExperimentGrid
from .report import banner


@dataclass
class ExperimentReport:
    """The textual + structured outcome of one reproduced table/figure."""

    exp_id: str
    title: str
    expectation: str                  # the paper's qualitative claim
    sections: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def render(self) -> str:
        """The full human-readable report."""
        parts = [banner(f"{self.exp_id}: {self.title}"),
                 f"paper expectation: {self.expectation}", ""]
        parts.extend(self.sections)
        parts.append(f"\n[generated in {self.wall_seconds:.1f}s wall time]")
        return "\n".join(parts)

    def summary(self) -> dict:
        """JSON-safe summary (for --json): metadata + rendered sections."""
        return {
            "experiment": self.exp_id,
            "title": self.title,
            "expectation": self.expectation,
            "sections": list(self.sections),
            "wall_seconds": round(self.wall_seconds, 2),
        }


def timed(fn: Callable[[], ExperimentReport]) -> ExperimentReport:
    """Run an experiment builder and stamp its wall time."""
    t0 = time.perf_counter()
    report = fn()
    report.wall_seconds = time.perf_counter() - t0
    return report


def progress(msg: str) -> None:
    """Lightweight progress line (stderr, so stdout stays clean)."""
    print(f"    .. {msg}", file=sys.stderr, flush=True)


def cell_progress(done: int, total: int, label: str) -> None:
    """Cell-level progress line of the grid runner (one per finished cell)."""
    progress(f"[{done}/{total}] {label}")


def make_grid(scale: Scale, jobs: int | None = None,
              use_cache: bool | None = None) -> ExperimentGrid:
    """A grid runner preconfigured with the scale's seed and trial count.

    The generators declare every configuration with :meth:`~.ExperimentGrid
    .add`, then one :meth:`~.ExperimentGrid.run` executes the whole grid —
    over the process pool when ``--jobs``/``$REPRO_JOBS`` asks for it,
    reporting each finished cell through :func:`cell_progress`.
    """
    return ExperimentGrid(seed=scale.seed, default_trials=scale.trials,
                          jobs=jobs, use_cache=use_cache,
                          progress=cell_progress)


__all__ = ["ExperimentReport", "cell_progress", "make_grid", "progress",
           "timed"]
