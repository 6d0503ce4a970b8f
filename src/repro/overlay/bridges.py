"""Bridge edges: the B in BTD (paper §II-B3).

Each node picks one outgoing bridge ``b_{v→u}`` at random; bridges are
logical shortcuts over which an idle node asks for work *in parallel* with
its tree search, letting work jump between distant subtrees.

The paper says bridges "connect nodes being far away each other in the
tree"; the selection policies here range from plain uniform choice to a
minimum-tree-distance filter, with ``"far"`` (distance above half the tree
height) as the default used by the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.errors import SimConfigError
from ..sim.rng import RngStream
from .tree import TreeOverlay

#: Selection policy name -> predicate factory. A predicate decides whether
#: node ``u`` is an acceptable bridge target for node ``v``.
_POLICIES = {}


def _policy(name: str):
    def deco(fn):
        _POLICIES[name] = fn
        return fn
    return deco


@_policy("uniform")
def _uniform(tree: TreeOverlay) -> Callable[[int, int], bool]:
    """Any node other than v itself and its tree neighbours."""
    def ok(v: int, u: int) -> bool:
        return u != v and u != tree.parent[v] and tree.parent[u] != v
    return ok


@_policy("far")
def _far(tree: TreeOverlay) -> Callable[[int, int], bool]:
    """Tree distance strictly greater than half the tree height."""
    threshold = max(2, tree.height // 2 + 1)

    def ok(v: int, u: int) -> bool:
        return u != v and tree.distance(v, u) > threshold
    return ok


@dataclass(frozen=True)
class BridgedTreeOverlay:
    """A :class:`TreeOverlay` plus one outgoing bridge per node.

    ``bridge[v]`` is the target of v's bridge, or ``-1`` when no acceptable
    target exists (degenerate overlays: n <= 2).
    """

    tree: TreeOverlay
    bridge: tuple[int, ...]
    policy: str = "far"

    def __post_init__(self) -> None:
        if len(self.bridge) != self.tree.n:
            raise SimConfigError("bridge vector length must equal tree size")
        for v, u in enumerate(self.bridge):
            if u == v or not (-1 <= u < self.tree.n):
                raise SimConfigError(f"invalid bridge {v} -> {u}")

    @property
    def n(self) -> int:
        """Number of peers."""
        return self.tree.n

    @property
    def kind(self) -> str:
        """Overlay label, e.g. "BTD"."""
        return f"B{self.tree.kind}"

    def bridge_of(self, v: int) -> Optional[int]:
        """Target of v's bridge, or None when it has none."""
        u = self.bridge[v]
        return None if u < 0 else u


def add_bridges(tree: TreeOverlay, seed: int = 0,
                policy: str = "far",
                max_tries: int = 64) -> BridgedTreeOverlay:
    """Pick one random bridge per node under the given policy.

    Falls back from ``far`` to ``uniform`` to "anything but me" per node if
    the policy admits no target (tiny or star-shaped overlays), so every node
    of a non-trivial overlay always has a bridge.
    """
    if policy not in _POLICIES:
        raise SimConfigError(
            f"unknown bridge policy {policy!r}; have {sorted(_POLICIES)}")
    n = tree.n
    if n == 2:
        # Forced: each node's only other node is its tree neighbour, which
        # no policy admits, so the draws all miss and the last resort picks
        # it anyway. Skipping them is exact (the stream is local to this
        # call) and spares every two-worker job 258 draws.
        return BridgedTreeOverlay(tree=tree, bridge=(1, 0), policy=policy)
    rng = RngStream(seed, "bridges", policy)
    chain = [policy] + [p for p in ("uniform",) if p != policy]
    preds = {name: _POLICIES[name](tree) for name in chain}
    bridges: list[int] = []
    for v in range(n):
        choice = -1
        for name in chain:
            ok = preds[name]
            for _ in range(max_tries):
                u = rng.randrange(n)
                if ok(v, u):
                    choice = u
                    break
            if choice >= 0:
                break
        if choice < 0 and n > 1:
            # Last resort: any other node (still a valid shortcut).
            u = rng.randrange(n - 1)
            choice = u if u < v else u + 1
        bridges.append(choice)
    return BridgedTreeOverlay(tree=tree, bridge=tuple(bridges), policy=policy)


__all__ = ["BridgedTreeOverlay", "add_bridges"]
