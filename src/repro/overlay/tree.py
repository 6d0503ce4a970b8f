"""Tree overlays connecting the computing peers (paper §II, §IV).

Two constructions from the paper:

* **TD(dmax)** — *deterministic tree*: starting from the root, pack at most
  ``dmax`` children per node level by level. Node ids are BFS ids by
  construction (the root is 0, the first level is 1..dmax, ...), which is
  precisely the labelling used by Fig. 1 (bottom).
* **TR** — *randomized tree*: node i (in id order) picks its parent uniformly
  at random among nodes 0..i-1 (a random recursive tree).

The overlay is a static structure; protocols only read it. Subtree sizes are
available both analytically (:attr:`TreeOverlay.subtree_size`) and through
the distributed converge-cast of :mod:`repro.overlay.convergecast`, which the
tests check against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..sim.errors import SimConfigError
from ..sim.rng import RngStream


@dataclass(frozen=True)
class TreeOverlay:
    """An immutable rooted tree over peers ``0..n-1`` (root = 0).

    Attributes:
        parent: ``parent[v]`` for every node; ``-1`` for the root.
        children: adjacency from parent to children, in id order.
        kind: construction label (``"TD"``, ``"TR"``, or custom).
        dmax: the degree bound used for TD trees (0 when not applicable).
    """

    parent: tuple[int, ...]
    kind: str = "custom"
    dmax: int = 0
    children: tuple[tuple[int, ...], ...] = field(init=False)
    subtree_size: tuple[int, ...] = field(init=False)
    depth: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.parent)
        if n == 0:
            raise SimConfigError("overlay needs at least one node")
        if self.parent[0] != -1:
            raise SimConfigError("node 0 must be the root (parent == -1)")
        kids: list[list[int]] = [[] for _ in range(n)]
        depth = [0] * n
        for v in range(1, n):
            p = self.parent[v]
            if not (0 <= p < v):
                raise SimConfigError(
                    f"node {v} has parent {p}; parents must satisfy 0 <= p < v")
            kids[p].append(v)
            depth[v] = depth[p] + 1
        sizes = [1] * n
        for v in range(n - 1, 0, -1):
            sizes[self.parent[v]] += sizes[v]
        object.__setattr__(self, "children", tuple(tuple(k) for k in kids))
        object.__setattr__(self, "subtree_size", tuple(sizes))
        object.__setattr__(self, "depth", tuple(depth))

    # -- basic shape ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of peers."""
        return len(self.parent)

    @property
    def root(self) -> int:
        """The root's pid (always 0)."""
        return 0

    @property
    def height(self) -> int:
        """Maximum depth of any node."""
        return max(self.depth)

    def leaves(self) -> list[int]:
        """All leaf pids, ascending."""
        return [v for v in range(self.n) if not self.children[v]]

    def degree(self, v: int) -> int:
        """Overlay degree (children + parent link)."""
        return len(self.children[v]) + (0 if v == 0 else 1)

    def neighbors(self, v: int) -> list[int]:
        """v's overlay neighbours: children plus parent."""
        out = list(self.children[v])
        if v != 0:
            out.append(self.parent[v])
        return out

    def bfs_order(self) -> Iterator[int]:
        """Nodes in BFS order (for TD this is simply 0..n-1)."""
        from collections import deque
        q: deque[int] = deque([0])
        while q:
            v = q.popleft()
            yield v
            q.extend(self.children[v])

    def distance(self, u: int, v: int) -> int:
        """Tree distance (hops) between two nodes."""
        pu, pv = u, v
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            pu = self.parent[pu]
            du -= 1
        while dv > du:
            pv = self.parent[pv]
            dv -= 1
        d = 0
        while pu != pv:
            pu = self.parent[pu]
            pv = self.parent[pv]
            d += 1
        return (self.depth[u] - du) + (self.depth[v] - dv) + 2 * d

    def validate(self) -> None:
        """Cross-check internal invariants (used by property tests)."""
        assert self.subtree_size[0] == self.n
        assert sum(1 for v in range(self.n) if self.parent[v] == -1) == 1
        for v in range(1, self.n):
            assert v in self.children[self.parent[v]]
        total = sum(len(c) for c in self.children)
        assert total == self.n - 1


def deterministic_tree(n: int, dmax: int) -> TreeOverlay:
    """TD(dmax): the complete dmax-ary tree filled in BFS order.

    Node ``v``'s parent is ``(v - 1) // dmax``: level 0 holds the root,
    level 1 holds at most dmax nodes, and so on (paper §IV: "packing at most
    dmax nodes in the first level, then loop over the nodes of the new level
    packing again at most dmax children per node").
    """
    if n <= 0:
        raise SimConfigError("n must be >= 1")
    if dmax < 1:
        raise SimConfigError("dmax must be >= 1")
    parent = [-1] + [(v - 1) // dmax for v in range(1, n)]
    return TreeOverlay(parent=tuple(parent), kind="TD", dmax=dmax)


def random_tree(n: int, seed: int = 0) -> TreeOverlay:
    """TR: node i attaches to a uniform random node among 0..i-1 (paper §IV)."""
    if n <= 0:
        raise SimConfigError("n must be >= 1")
    rng = RngStream(seed, "random-tree")
    parent = [-1] + [rng.randint(0, v - 1) for v in range(1, n)]
    return TreeOverlay(parent=tuple(parent), kind="TR")


def star_tree(n: int) -> TreeOverlay:
    """A star (master-worker shape): everyone hangs off the root."""
    return TreeOverlay(parent=tuple([-1] + [0] * (n - 1)), kind="star",
                       dmax=max(0, n - 1))


def chain_tree(n: int) -> TreeOverlay:
    """A path: worst-case diameter; useful in tests and ablations."""
    return TreeOverlay(parent=tuple([-1] + list(range(n - 1))), kind="chain",
                       dmax=1)


def from_parents(parents: Sequence[int], kind: str = "custom") -> TreeOverlay:
    """Wrap an explicit parent vector (root first, parents[0] == -1)."""
    return TreeOverlay(parent=tuple(parents), kind=kind)


def graft_leaf(tree: TreeOverlay, parent: int) -> TreeOverlay:
    """``tree`` plus one new leaf (pid = old n) attached under ``parent``.

    Elastic membership: the live runtime always assigns a joining worker
    the next pid, so the extended parent vector stays a valid
    parent-before-child encoding and every member that applies the same
    graft sequence rebuilds the identical overlay.
    """
    if not (0 <= parent < tree.n):
        raise SimConfigError(
            f"graft parent {parent} outside the overlay (n={tree.n})")
    return TreeOverlay(parent=tree.parent + (parent,), kind=tree.kind,
                       dmax=tree.dmax)


__all__ = [
    "TreeOverlay", "deterministic_tree", "random_tree", "star_tree",
    "chain_tree", "from_parents", "graft_leaf",
]
