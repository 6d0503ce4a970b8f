"""UTS as a worker-framework application."""

from __future__ import annotations

from typing import Any

from ..uts.tree import UTSParams
from ..uts.work import UTSWork
from . import UTS_UNIT_COST
from .base import Application, ProcessOutcome


class UTSApplication(Application):
    """Count an unbalanced tree; work = stacks of pending node descriptors."""

    def __init__(self, params: UTSParams,
                 unit_cost: float = UTS_UNIT_COST) -> None:
        self.params = params
        self.unit_cost = unit_cost
        self.name = f"UTS[{params.describe()}]"

    def initial_work(self) -> UTSWork:
        return UTSWork.root(self.params)

    def empty_work(self) -> UTSWork:
        return UTSWork.empty(self.params)

    def process(self, work: UTSWork, max_units: int,
                shared: Any) -> ProcessOutcome:
        return ProcessOutcome(units=work.process(max_units))

    def process_quanta(self, work: UTSWork, max_units: int, shared: Any,
                       limit: int) -> list[int]:
        # the stack's own replay loop: the same quanta as `limit` process()
        # calls, without a ProcessOutcome or a method call per quantum
        return work.process_quanta(max_units, limit)


__all__ = ["UTSApplication", "UTS_UNIT_COST"]
