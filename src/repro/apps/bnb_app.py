"""Flowshop B&B as a worker-framework application.

All simulated workers of a run share one (stateless) :class:`BnBEngine`;
each holds its own :class:`BoundState`, kept loosely consistent by the
protocol's diffusion of improved upper bounds.
"""

from __future__ import annotations

from typing import Optional

from ..bnb.bounds import LowerBound
from ..bnb.engine import BnBEngine
from ..bnb.flowshop import FlowshopInstance
from ..bnb.state import BoundState
from ..bnb.work import BnBWork
from . import BNB_UNIT_COST
from .base import Application, ProcessOutcome


class BnBApplication(Application):
    """Solve a flow-shop instance exactly; work = interval sets.

    ``warm_start=True`` seeds every worker's bound state with the NEH
    heuristic solution — the regime-preserving default of the experiment
    harness (see :mod:`repro.bnb.neh`); cold (from-scratch, as the paper
    words it) is the constructor default.  ``neh`` optionally supplies a
    precomputed ``(makespan, permutation)`` NEH solution — the parallel
    grid runner ships it to pool workers so they do not redo the
    heuristic per cell.
    """

    def __init__(self, instance: FlowshopInstance,
                 bound: LowerBound | str = "lb1",
                 unit_cost: float = BNB_UNIT_COST,
                 warm_start: bool = False,
                 neh: tuple[int, list[int]] | None = None) -> None:
        self.instance = instance
        self.engine = BnBEngine(instance, bound=bound)
        self.unit_cost = unit_cost
        self.warm_start = warm_start
        self._neh: tuple[int, list[int]] | None = None
        if warm_start:
            if neh is None:
                from ..bnb.neh import neh as neh_heuristic
                neh = neh_heuristic(instance)
            self._neh = neh
        self.name = f"B&B[{instance.name}]"

    def initial_work(self) -> BnBWork:
        return BnBWork.full_tree(self.instance.n_jobs)

    def empty_work(self) -> BnBWork:
        return BnBWork.empty(self.instance.n_jobs)

    def process(self, work: BnBWork, max_units: int,
                shared: BoundState) -> ProcessOutcome:
        res = self.engine.explore(work, shared, max_units)
        return ProcessOutcome(units=res.nodes, improved=res.improved)

    def make_shared(self) -> BoundState:
        if self._neh is not None:
            value, perm = self._neh
            return BoundState(value=value + 1)  # prune lb >= NEH+1 keeps NEH
        return BoundState()

    def shared_value(self, shared: BoundState) -> Optional[int]:
        from ..bnb.state import INF
        return shared.value if shared.value < INF else None

    def absorb_value(self, shared: BoundState, value: int) -> bool:
        return shared.update(value)


__all__ = ["BnBApplication", "BNB_UNIT_COST"]
