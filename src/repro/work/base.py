"""The splittable-work abstraction every application implements.

"a work unit (or a task) in our terminology may (or may not) generate an
unpredictable number of tasks at runtime" (paper §II). Load-balancing
protocols never look inside work: they only measure it (:meth:`WorkItem.
amount`), cut off a share (:meth:`WorkItem.split`), merge received pieces
(:meth:`WorkItem.merge`), and price their transfer
(:meth:`WorkItem.encoded_bytes`).

Concrete implementations: :class:`repro.uts.work.UTSWork` (a stack of
pending tree nodes), :class:`repro.bnb.work.BnBWork` (a list of disjoint
B&B intervals) and :class:`repro.apps.synthetic.SyntheticWork`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional


class WorkItem(ABC):
    """Abstract splittable work; see the module docstring."""

    #: :mod:`repro.runtime.codec` dispatches on this, not on a class to import
    wire_tag: Optional[str] = None

    @abstractmethod
    def amount(self) -> int:
        """Current work amount in application units (stack entries,
        interval positions, ...). Zero iff :meth:`is_empty`."""

    def is_empty(self) -> bool:
        """True when no work remains."""
        return self.amount() <= 0

    @abstractmethod
    def split(self, fraction: float) -> Optional["WorkItem"]:
        """Extract and return roughly ``fraction`` of this work.

        Mutates self (the kept part). Returns ``None`` when nothing can be
        given away (empty, or indivisible remainder). Implementations must
        guarantee conservation: amount(given) + amount(kept) equals the
        amount before the call.
        """

    @abstractmethod
    def merge(self, other: "WorkItem") -> None:
        """Absorb work received from another node (mutates self)."""

    @abstractmethod
    def encoded_bytes(self) -> int:
        """Wire size of this work if sent in a message (network pricing)."""


def clamp_fraction(fraction: float) -> float:
    """Clip a sharing fraction into [0, 1]; protocols use it defensively."""
    if fraction < 0.0:
        return 0.0
    if fraction > 1.0:
        return 1.0
    return fraction


__all__ = ["WorkItem", "clamp_fraction"]
