"""Work-sharing policies: how much to give a requester (paper §II-B2).

The paper's contribution is the *overlay-proportional* policy:

* parent v serves child u:      fraction = T_u / T_v
* child v serves its parent u:  fraction = (T_u - T_v) / T_u
* bridge owner u serves v:      fraction = T_v / (T_u + T_v)

with T_x the overlay-subtree size of x. Baseline policies from the
literature (steal-half, steal-1, steal-2, fixed fraction) are provided for
the Fig. 2 comparison and the ablation benches.

A :class:`SharingPolicy` maps a :class:`ShareContext` (who asks whom over
which kind of link) to a fraction of the victim's current work amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ..sim.errors import SimConfigError
from .base import clamp_fraction


class LinkKind(Enum):
    """Which overlay relation the request travelled over."""

    TO_CHILD = "to_child"      # victim is the parent, requester its child
    TO_PARENT = "to_parent"    # victim is the child, requester its parent
    BRIDGE = "bridge"          # victim is a bridge target
    PEER = "peer"              # structureless (RWS victim)


@dataclass(slots=True)
class ShareContext:
    """Everything a policy may look at when computing a share.

    Subtree "sizes" are node counts in the paper's homogeneous setting and
    aggregate compute capacities in the heterogeneous extension
    (``OCLBConfig.capacity_aware``) — the fraction formulas are identical.
    Not frozen: one is built per serve and nothing hashes it, while a
    frozen dataclass pays ``object.__setattr__`` for every field.
    """

    link: LinkKind
    victim_subtree: float = 1     # T of the node that owns the work
    requester_subtree: float = 1  # T of the node asking for work
    work_amount: int = 0          # victim's current work amount


class SharingPolicy:
    """A named fraction rule; instances are stateless and reusable."""

    def __init__(self, name: str, fn: Callable[[ShareContext], float]) -> None:
        self.name = name
        self._fn = fn

    def fraction(self, ctx: ShareContext) -> float:
        return clamp_fraction(self._fn(ctx))

    def __repr__(self) -> str:
        return f"SharingPolicy({self.name!r})"


def _proportional(ctx: ShareContext) -> float:
    tu, tv = ctx.requester_subtree, ctx.victim_subtree
    if ctx.link is LinkKind.TO_CHILD:
        # child u steals from parent v: T_u / T_v
        return tu / max(1e-9, tv)
    if ctx.link is LinkKind.TO_PARENT:
        # parent u steals from child v: (T_u - T_v) / T_u
        return (tu - tv) / max(1e-9, tu)
    if ctx.link is LinkKind.BRIDGE:
        # bridge requester u steals from owner v: T_u / (T_u + T_v)
        return tu / max(1e-9, tu + tv)
    return 0.5  # structureless fallback


PROPORTIONAL = SharingPolicy("proportional", _proportional)
STEAL_HALF = SharingPolicy("steal-half", lambda ctx: 0.5)


def steal_k(k: int) -> SharingPolicy:
    """Give exactly k work units (steal-1 / steal-2 of Dinan et al.)."""
    if k < 1:
        raise SimConfigError("steal-k requires k >= 1")
    return SharingPolicy(
        f"steal-{k}",
        lambda ctx: k / ctx.work_amount if ctx.work_amount > 0 else 0.0)


def fixed_fraction(f: float) -> SharingPolicy:
    """Always give the same fraction of the victim's work."""
    if not (0.0 < f < 1.0):
        raise SimConfigError("fixed fraction must lie strictly in (0, 1)")
    return SharingPolicy(f"fixed-{f:g}", lambda ctx: f)


_REGISTRY: dict[str, Callable[[], SharingPolicy]] = {
    "proportional": lambda: PROPORTIONAL,
    "half": lambda: STEAL_HALF,
    "steal-half": lambda: STEAL_HALF,
    "steal-1": lambda: steal_k(1),
    "steal-2": lambda: steal_k(2),
}


def get_policy(name: str) -> SharingPolicy:
    """Look a policy up by name (``fixed:0.25`` for fixed fractions)."""
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name.startswith("fixed:"):
        return fixed_fraction(float(name.split(":", 1)[1]))
    if name.startswith("steal-"):
        return steal_k(int(name.split("-", 1)[1]))
    raise SimConfigError(f"unknown sharing policy {name!r}; "
                         f"known: {sorted(_REGISTRY)} | fixed:<f>")


__all__ = ["LinkKind", "ShareContext", "SharingPolicy", "PROPORTIONAL",
           "STEAL_HALF", "steal_k", "fixed_fraction", "get_policy"]
