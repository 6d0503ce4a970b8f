"""Distributed subtree-size computation (paper §II-B2).

"each node must know the size of its own subtree and also the size of its
parent subtree. This is computed in a fully distributed manner using a
classical converge-cast process starting from leaf nodes until reaching the
root."

:class:`SizeService` is a protocol component embedded in a host
:class:`~repro.sim.process.SimProcess` (the overlay-centric worker uses it as
its bootstrap phase): leaves send ``SIZE_UP 1``; inner nodes aggregate their
children and forward; once the root has aggregated everything it cascades
``SIZE_DOWN`` carrying each receiver's parent-subtree size. A node is
*ready* when it knows both sizes.

:class:`ConvergecastProcess` wraps the service in a bare process so the
protocol can be simulated and unit-tested on its own.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from ..sim.messages import Message
from ..sim.process import SimProcess, weak_callback
from .tree import TreeOverlay

SIZE_UP = "SIZE_UP"
SIZE_DOWN = "SIZE_DOWN"
_INT_BYTES = 8


class SizeService:
    """Converge-cast component; see module docstring.

    Args:
        host: the process this service sends/receives through (held
            weakly, as is ``on_ready`` when it is one of its methods).
        tree: the overlay (only the host's own links are read).
        on_ready: callback fired exactly once, when both sizes are known.
    """

    def __init__(self, host: SimProcess, tree: TreeOverlay,
                 on_ready: Optional[Callable[[], None]] = None,
                 weight: float = 1.0) -> None:
        self.host = weakref.proxy(host)
        self.tree = tree
        self.on_ready = weak_callback(on_ready, host)
        v = host.pid
        self._waiting = set(tree.children[v])
        # own contribution: 1 for plain subtree sizes; the node's relative
        # compute capacity for capacity-aware sharing (heterogeneous mode)
        self._acc: float = weight
        self.my_size: Optional[float] = None
        self.parent_size: Optional[float] = None  # None for the root, ever
        self.ready = False

    def start(self) -> None:
        """Kick off the wave; call from the host's ``start``."""
        if not self._waiting:
            self._complete_up()

    def handles(self, kind: str) -> bool:
        return kind in (SIZE_UP, SIZE_DOWN)

    def handle(self, msg: Message) -> bool:
        """Consume a converge-cast message; True when it was one."""
        if msg.kind == SIZE_UP:
            self._waiting.discard(msg.src)
            self._acc += msg.payload
            if not self._waiting and self.my_size is None:
                self._complete_up()
            return True
        if msg.kind == SIZE_DOWN:
            self.parent_size = msg.payload
            self._maybe_ready()
            return True
        return False

    # -- fault hooks (only called when fault injection is active) -------------

    def child_dead(self, pid: int) -> None:
        """Stop waiting for a crashed child's SIZE_UP.

        Its subtree's contribution is simply missing — post-crash sizes are
        approximate, which is fine: they only modulate sharing fractions.
        """
        self._waiting.discard(pid)
        if not self._waiting and self.my_size is None:
            self._complete_up()

    def waiting_children(self) -> tuple:
        """Children whose SIZE_UP is still outstanding (liveness probing)."""
        return tuple(self._waiting)

    def note_parent_size(self, size: float) -> None:
        """Learn the parent-subtree size out of band (from an ADOPT)."""
        self.parent_size = size
        self._maybe_ready()

    # -- internals -----------------------------------------------------------

    def _complete_up(self) -> None:
        v = self.host.pid
        self.my_size = self._acc
        if v != self.tree.root:
            self.host.send(self.tree.parent[v], SIZE_UP, self.my_size,
                           body_bytes=_INT_BYTES)
        # A node's size is its children's parent-subtree size: tell them now.
        for c in self.tree.children[v]:
            self.host.send(c, SIZE_DOWN, self.my_size, body_bytes=_INT_BYTES)
        self._maybe_ready()

    def _maybe_ready(self) -> None:
        if self.ready or self.my_size is None:
            return
        if self.host.pid != self.tree.root and self.parent_size is None:
            return
        self.ready = True
        if self.on_ready is not None:
            self.on_ready()


class ConvergecastProcess(SimProcess):
    """Standalone host: runs one converge-cast and stops."""

    def __init__(self, pid: int, tree: TreeOverlay) -> None:
        super().__init__(pid)
        self.service = SizeService(self, tree, on_ready=self._done)
        self._finished = False

    def start(self) -> None:
        self.service.start()

    def on_message(self, msg: Message) -> None:
        self.service.handle(msg)

    def _done(self) -> None:
        self._finished = True
        self.stats.finish_time = self.now

    def finished(self) -> bool:
        return self._finished


__all__ = ["SizeService", "ConvergecastProcess", "SIZE_UP", "SIZE_DOWN"]
