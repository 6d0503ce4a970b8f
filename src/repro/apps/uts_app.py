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
        # Chunked exactly like `limit` separate process() calls — UTS
        # expansion pops off the top and pushes children mid-sequence, so
        # one big batch would visit different nodes than k quanta; the
        # per-quantum loop is the bit-identical (and still vectorised
        # inside work.process) form. Skips the ProcessOutcome boxing of
        # the default implementation.
        out: list[int] = []
        while len(out) < limit:
            u = work.process(max_units)
            if u <= 0:
                break
            out.append(u)
        return out


__all__ = ["UTSApplication", "UTS_UNIT_COST"]
