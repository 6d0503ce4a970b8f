"""Splittable-work abstraction and work-sharing policies."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .base import WorkItem, clamp_fraction
    from .sharing import (PROPORTIONAL, STEAL_HALF, LinkKind, ShareContext,
                          SharingPolicy, fixed_fraction, get_policy, steal_k)

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".base": "WorkItem clamp_fraction",
    ".sharing": "PROPORTIONAL STEAL_HALF LinkKind ShareContext "
                "SharingPolicy fixed_fraction get_policy steal_k",
})
