"""Configuration of the overlay-centric load balancer."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.errors import SimConfigError


@dataclass(slots=True)
class OCLBConfig:
    """Tunables of the overlay-centric protocol (paper §II).

    The work-sharing policy is the run's, not the protocol's:
    ``RunConfig.sharing`` (see :mod:`repro.work.sharing`).

    Attributes:
        wave_retry: pause between inconclusive termination waves.
        probe_retry: pause before an idle node starts a fresh down-phase
            probing round (idle nodes keep searching, paced by this).
        convergecast: compute subtree sizes with the distributed
            converge-cast protocol (paper-faithful). Setting it False reads
            the sizes off the overlay object instantly — a what-if knob for
            ablations; the results are identical, only the bootstrap
            messages disappear.
        withdraw: when a node that obtained work still has a request queued
            elsewhere (at its parent, or over its bridge), send WITHDRAW to
            cancel it. Stale grants would otherwise deliver work to a node
            that no longer needs it, feeding transfer churn; disabling this
            is an ablation knob — results stay correct, traffic grows.
    """

    wave_retry: float = 2e-3
    probe_retry: float = 2.5e-4
    convergecast: bool = True
    withdraw: bool = True
    #: heterogeneity extension (the paper's stated future work): subtree
    #: "sizes" aggregate per-node compute capacities instead of node
    #: counts, so proportional shares track capacity. Requires the
    #: converge-cast bootstrap (capacities are only known locally).
    capacity_aware: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.wave_retry < math.inf:
            raise SimConfigError("wave_retry must be positive and finite")
        if not 0 < self.probe_retry < math.inf:
            raise SimConfigError("probe_retry must be positive and finite")


__all__ = ["OCLBConfig"]
