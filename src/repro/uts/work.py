"""UTS as splittable work: a stack of pending tree nodes.

A :class:`UTSWork` holds the node descriptors (state word + depth) of tree
nodes whose subtrees still have to be explored. Processing pops from the
top (depth-first) and pushes children; stealing takes entries from the
*bottom* of the stack — the oldest, statistically largest subtrees — the
standard work-stealing granularity argument (Blumofe & Leiserson).

Conservation invariant (property-tested): split/merge never create or lose
stack entries, and the total number of nodes popped across any set of
workers equals the sequential tree size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.errors import SimConfigError
from ..work.base import WorkItem
from . import rng as uts_rng
from .tree import UTSParams, expand, root_frontier

#: Wire bytes per stack entry: 8 (state) + 4 (depth).
ENTRY_BYTES = 12
_MIN_CAP = 64


class UTSWork(WorkItem):
    """Splittable stack of pending UTS nodes (see module docstring)."""

    __slots__ = ("params", "_states", "_depths", "_size", "_root")
    wire_tag = "__uts"

    def __init__(self, params: UTSParams,
                 states: Optional[np.ndarray] = None,
                 depths: Optional[np.ndarray] = None) -> None:
        self.params = params
        n = 0 if states is None else len(states)
        cap = max(_MIN_CAP, n)
        self._states = np.empty(cap, dtype=np.uint64)
        self._depths = np.empty(cap, dtype=np.int32)
        if n:
            self._states[:n] = states
            self._depths[:n] = depths
        self._size = n
        #: the stack may hold the pseudo-root (a depth-0 entry): exact on
        #: construction, inherited by merge, re-derived by split and when
        #: the root expands. Only while it is set is a batch scanned for
        #: depth 0, and in a run that is one quantum: the root is the top
        #: of its stack (merge slides under it, split takes from the
        #: bottom and keeps one entry), so the first quantum expands it.
        self._root = bool(n) and not self._depths[:n].all()

    # -- construction ---------------------------------------------------------

    @classmethod
    def root(cls, params: UTSParams) -> "UTSWork":
        """The whole tree: a stack holding only the root descriptor."""
        return cls(params,
                   states=np.array([uts_rng.root_state(params.root_seed)],
                                   dtype=np.uint64),
                   depths=np.zeros(1, dtype=np.int32))

    @classmethod
    def empty(cls, params: UTSParams) -> "UTSWork":
        """An empty stack for the same instance."""
        return cls(params)

    # -- WorkItem interface -----------------------------------------------------

    def amount(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return self._size <= 0

    def split(self, fraction: float) -> Optional["UTSWork"]:
        give = int(fraction * self._size)
        give = min(give, self._size - 1)  # the victim keeps at least one node
        if give <= 0:
            return None
        piece = UTSWork(self.params,
                        states=self._states[:give].copy(),
                        depths=self._depths[:give].copy())
        keep = self._size - give
        self._states[:keep] = self._states[give:self._size]
        self._depths[:keep] = self._depths[give:self._size]
        self._size = keep
        if self._root:
            self._root = not self._depths[:keep].all()
        return piece

    def merge(self, other: WorkItem) -> None:
        if not isinstance(other, UTSWork):
            raise SimConfigError("cannot merge non-UTS work into UTSWork")
        k = other._size
        if k == 0:
            return
        self._reserve(self._size + k)
        # Incoming (old, large) subtrees slide under the current stack.
        self._states[k:k + self._size] = self._states[:self._size]
        self._depths[k:k + self._size] = self._depths[:self._size]
        self._states[:k] = other._states[:k]
        self._depths[:k] = other._depths[:k]
        self._size += k
        self._root = self._root or other._root
        other._size = 0
        other._root = False

    def encoded_bytes(self) -> int:
        return ENTRY_BYTES * self._size

    def __reduce__(self) -> tuple:
        # the live entries only, not the spare capacity of the buffers
        n = self._size
        if not n:
            return (UTSWork, (self.params,))
        return (UTSWork, (self.params, self._states[:n], self._depths[:n]))

    # -- processing ---------------------------------------------------------------

    def process(self, max_units: int) -> int:
        """Expand up to ``max_units`` nodes depth-first; returns nodes done."""
        done = self.process_quanta(max_units, 1)
        return done[0] if done else 0

    def process_quanta(self, max_units: int, limit: int) -> list[int]:
        """Up to ``limit`` quanta of :meth:`process`, in one loop; returns
        the nodes done per quantum, stopping early when the stack drains.

        Each quantum pops the top ``max_units`` entries and pushes their
        children, exactly as ``limit`` separate calls would: this is the
        one replay path, fused or not. The stack's buffers and size live in
        locals between quanta.
        """
        out: list[int] = []
        size = self._size
        if max_units <= 0 or size == 0 or limit <= 0:
            return out
        states, depths, params = self._states, self._depths, self.params
        root, kernel = self._root, expand
        while True:
            take = max_units if max_units < size else size
            lo = size - take
            # Views, not copies: the kernel never writes its inputs and
            # builds the children in fresh arrays before any push over them.
            s = states[lo:size]
            d = depths[lo:size]
            size = lo
            if root and not d.all():
                # the pseudo-root expands to exactly b0 children; the mask
                # copies the rest of the batch out before the push
                rest = d != 0
                s, d = s[rest], d[rest]
                root = self._root = not depths[:size].all()
                self._size = size
                self._push(*root_frontier(params))
                states, depths, size = self._states, self._depths, self._size
            cs, cd = kernel(s, d, params)
            k = len(cs)
            if k:
                top = size + k
                if top > len(states):
                    self._size = size
                    self._reserve(top)
                    states, depths = self._states, self._depths
                states[size:top] = cs
                depths[size:top] = cd
                size = top
            elif size == 0 and len(states) > _MIN_CAP:
                # An empty stack holds no buffer: a drained worker idles
                # out the rest of its run on the 64-entry minimum.
                states = self._states = np.empty(_MIN_CAP, dtype=np.uint64)
                depths = self._depths = np.empty(_MIN_CAP, dtype=np.int32)
            out.append(take)
            if size == 0 or len(out) == limit:
                self._size = size
                return out

    # -- internals -------------------------------------------------------------------

    def _reserve(self, need: int) -> None:
        cap = len(self._states)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        ns = np.empty(cap, dtype=np.uint64)
        nd = np.empty(cap, dtype=np.int32)
        ns[:self._size] = self._states[:self._size]
        nd[:self._size] = self._depths[:self._size]
        self._states, self._depths = ns, nd

    def _push(self, states: np.ndarray, depths: np.ndarray) -> None:
        k = len(states)
        self._reserve(self._size + k)
        self._states[self._size:self._size + k] = states
        self._depths[self._size:self._size + k] = depths
        self._size += k

    def peek(self) -> tuple[np.ndarray, np.ndarray]:
        """(states, depths) view of the live stack — tests only."""
        return (self._states[:self._size].copy(),
                self._depths[:self._size].copy())

    def __repr__(self) -> str:  # pragma: no cover
        return f"UTSWork(size={self._size}, {self.params.describe()})"


__all__ = ["UTSWork", "ENTRY_BYTES"]
