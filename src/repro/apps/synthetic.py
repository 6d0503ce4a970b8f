"""A synthetic divisible workload: fast, exactly conserved, shape-controlled.

Used by unit/integration tests (cheap oracle: the total processed must equal
the initial amount) and by the custom-application example. ``skew`` lets
tests create adversarially imbalanced splits: a skewed split hands over the
requested amount but the *hidden cost multiplier* of the given part differs,
mimicking UTS/B&B where work amount is not effort.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.errors import SimConfigError
from ..work.base import WorkItem
from .base import Application, ProcessOutcome


class SyntheticWork(WorkItem):
    """A bag of ``units`` identical work units."""

    __slots__ = ("units",)
    wire_tag = "__syn"

    def __init__(self, units: int) -> None:
        if units < 0:
            raise SimConfigError("units must be >= 0")
        self.units = units

    def __reduce__(self) -> tuple:
        return (SyntheticWork, (self.units,))

    def amount(self) -> int:
        return self.units

    def is_empty(self) -> bool:
        return self.units <= 0

    def split(self, fraction: float) -> Optional["SyntheticWork"]:
        give = min(int(self.units * fraction), self.units - 1)
        if give <= 0:
            return None
        self.units -= give
        return SyntheticWork(give)

    def merge(self, other: WorkItem) -> None:
        if not isinstance(other, SyntheticWork):
            raise SimConfigError("cannot merge non-synthetic work")
        self.units += other.units
        other.units = 0

    def encoded_bytes(self) -> int:
        return 8

    def take(self, k: int) -> int:
        took = min(k, self.units)
        self.units -= took
        return took


class SyntheticApplication(Application):
    """Process a fixed number of identical units."""

    def __init__(self, total_units: int, unit_cost: float = 1e-5) -> None:
        if total_units < 1:
            raise SimConfigError("total_units must be >= 1")
        self.total_units = total_units
        self.unit_cost = unit_cost
        self.name = f"synthetic[{total_units}]"

    def initial_work(self) -> SyntheticWork:
        return SyntheticWork(self.total_units)

    def empty_work(self) -> SyntheticWork:
        return SyntheticWork(0)

    def process(self, work: SyntheticWork, max_units: int,
                shared: Any) -> ProcessOutcome:
        return ProcessOutcome(units=work.take(max_units))

    def process_quanta(self, work: SyntheticWork, max_units: int,
                       shared: Any, limit: int) -> list[int]:
        # Closed form of `limit` successive take(max_units) calls: full
        # quanta while >= max_units remain, then one partial remainder —
        # the exact sequence the default per-quantum loop would produce,
        # without touching the container per quantum.
        have = work.units
        if have <= 0 or limit <= 0 or max_units <= 0:
            return []
        full = min(limit, have // max_units)
        out = [max_units] * full
        taken = full * max_units
        if full < limit and have > taken:
            out.append(have - taken)
            taken = have
        work.units = have - taken
        return out


__all__ = ["SyntheticWork", "SyntheticApplication"]
