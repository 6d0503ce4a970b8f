"""Simulated process base class.

A :class:`SimProcess` owns one virtual CPU. The CPU is either *free* or
*busy* (computing a quantum or absorbing a message); incoming messages queue
in the inbox while it is busy and are absorbed FIFO, each occupying the CPU
for the network model's ``handler_cost``. This non-preemptive occupancy
model is what lets the simulator reproduce saturation effects (a
master–worker coordinator melting under 1000 fine-grain requesters) without
modelling real threads.

Subclass contract:

* override :meth:`start` to bootstrap (schedule work, send first messages);
* override :meth:`on_message` for protocol logic (called when the CPU has
  *finished* absorbing the message);
* override :meth:`on_cpu_free` to resume background activity (the worker
  framework starts its next compute quantum here);
* override :meth:`finished` so the engine can distinguish quiescence
  (everyone done) from distributed deadlock.

Use :meth:`occupy` to model computation, :meth:`send` to transmit, and
:meth:`call_at` / :meth:`call_after` for zero-cost timers.

Ownership runs one way. The substrate (:class:`~repro.sim.engine.Simulator`,
:class:`~repro.runtime.env.LiveEnv`) owns its processes, and a process
reaches its substrate through a weak proxy, bound once when the substrate
adopts it (:meth:`SimProcess._bind`). A protocol component
(``SizeService``, ``TerminationWaves``, ``ReliableChannel``) reaches its
host through a weak proxy too, and stores a callback that is a method of
its host re-bound to that proxy (:func:`weak_callback`). So a finished
run holds no reference cycle: reference counting frees it the moment its
caller drops the substrate and its processes.
"""

from __future__ import annotations

import heapq
import weakref
from types import MethodType
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import SimRuntimeError
from .events import Event, event_key
from .messages import HEADER_BYTES, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class SimProcess:
    """One simulated node; see module docstring for the execution model.

    A process does not keep its substrate alive: ``sim`` is a weak proxy,
    so reading ``now`` (or sending, or scheduling) after the substrate is
    gone raises ``ReferenceError``.
    """

    def __init__(self, pid: int) -> None:
        if pid < 0:
            raise SimRuntimeError(f"pid must be >= 0, got {pid}")
        self.pid = pid
        self.sim: "Simulator" = None  # type: ignore[assignment]  # _bind
        self._handler_cost = 0.0
        self._debug = False
        # a list, not a deque: it is almost always empty, and an empty
        # deque costs ~760 bytes a process to a list's 56 (n of them per
        # cell; at n=10,000 that is 7 MB)
        self._inbox: list[Message] = []
        self._cpu_busy = False
        self._crashed = False   # set by the engine's fault layer, only
        self._occupy_event: Optional[Event] = None
        # the key of the next event this process schedules: every send
        # (one per delivery), timer, handler completion, occupy and
        # quantum boundary takes one (repro.sim.events, "key")
        self._key = event_key(pid, 0)
        # this process's row of the run statistics; bound by the
        # environment (Simulator._begin, LiveEnv.attach), None before
        self._stats = None
        # Lazy min-heap of fire times of pending events *targeting* this
        # process (deliveries, timers, crashes). Maintained only while the
        # engine runs with quantum fusion active; the macro-event fast path
        # reads it through :meth:`_inbound_horizon`. Entries are never
        # removed on cancellation — a stale entry can only make the horizon
        # conservative (less fusion), never unsound.
        self._inbound: list[float] = []

    # -- lifecycle hooks -----------------------------------------------------

    def start(self) -> None:
        """Called once at t=0 after every process is registered."""

    def on_message(self, msg: Message) -> None:
        """Protocol logic; runs when the CPU finished absorbing ``msg``."""

    def on_cpu_free(self) -> None:
        """Called whenever the CPU goes idle with an empty inbox."""

    def finished(self) -> bool:
        """True when this process considers the computation terminated."""
        return True

    # -- conveniences ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def stats(self):
        """This process's counters in the run statistics (the row its
        environment bound when the run began)."""
        return self._stats

    @property
    def cpu_busy(self) -> bool:
        """True while computing or absorbing a message."""
        return self._cpu_busy

    def send(self, dst: int, kind: str, payload: Any = None,
             body_bytes: int = 0) -> None:
        """Transmit a message; delivery time priced by the network model."""
        # sized() inline: the constructor clamps a negative body to the
        # bare header, as max(0, body) would
        self.sim.transmit(Message(self.pid, dst, kind, payload,
                                  HEADER_BYTES + int(body_bytes)))

    def call_at(self, time: float, fn: Callable[[], None], tag: str = "") -> Event:
        """Schedule a zero-cost callback at absolute virtual ``time``."""
        if not tag and self._debug:
            tag = f"timer@{self.pid}"
        if self.sim.fuse_active:
            self._note_inbound(time)
        key = self._key
        self._key = key + 1
        if self.sim.faults is not None:
            # route through a guard so timers of a crashed process are inert
            return self.sim.queue.push(time, key, self._fire_timer, tag=tag,
                                       arg=fn)
        return self.sim.queue.push(time, key, fn, tag=tag)

    def _fire_timer(self, fn: Callable[[], None]) -> None:
        if not self._crashed:
            fn()

    def call_after(self, delay: float, fn: Callable[[], None], tag: str = "") -> Event:
        """Schedule a zero-cost callback ``delay`` seconds from now."""
        return self.call_at(self.now + delay, fn, tag=tag)

    def occupy(self, duration: float, done: Callable[[], None],
               tag: str = "") -> None:
        """Occupy the CPU for ``duration`` then run ``done``.

        ``done`` executes with the CPU still marked busy so it can chain
        another :meth:`occupy`; if it does not, queued messages are absorbed
        and finally :meth:`on_cpu_free` fires.
        """
        if self._cpu_busy:
            raise SimRuntimeError(f"process {self.pid}: CPU already busy")
        if duration < 0:
            raise SimRuntimeError(f"process {self.pid}: negative occupy {duration}")
        self._cpu_busy = True
        sim = self.sim
        if not tag and self._debug:
            tag = f"occupy@{self.pid}"
        key = self._key
        self._key = key + 1
        self._occupy_event = sim.queue.push(sim.queue.now + duration, key,
                                            self._occupy_done, tag=tag,
                                            arg=done)

    def _occupy_done(self, done: Callable[[], None]) -> None:
        self._occupy_event = None
        self._cpu_busy = False
        done()
        self._drain()

    # -- engine-facing internals ----------------------------------------------

    def _bind(self, env) -> None:
        """Adoption by the substrate ``env`` (``Simulator.add_process``,
        ``LiveEnv.attach``): reach it weakly, and copy the two plain
        values the per-message path reads, so that path dereferences the
        proxy only to send and to schedule."""
        self.sim = weakref.proxy(env)
        self._handler_cost = env.network.handler_cost
        self._debug = env.debug

    def _note_inbound(self, time: float) -> None:
        """Record that some event targeting this process fires at ``time``.

        Called by the engine (deliveries, crash injections) and by
        :meth:`call_at` while quantum fusion is active. Kept O(log k) via a
        plain heap; the fast path only ever needs the minimum.
        """
        heapq.heappush(self._inbound, time)

    def _inbound_horizon(self) -> Optional[float]:
        """Earliest *possibly pending* event targeting this process.

        Prunes entries strictly before ``now`` (those events fired or were
        skipped already); an entry at exactly ``now`` stays, because an
        equal-time event may still be pending behind the current one — the
        conservative answer. Returns None when nothing is pending.
        """
        h = self._inbound
        now = self.sim.queue.now
        while h and h[0] < now:
            heapq.heappop(h)
        return h[0] if h else None

    def _arrive(self, msg: Message) -> None:
        """Engine hook: a message reached this node's NIC."""
        if self._crashed:
            return
        st = self._stats
        st.msgs_received += 1
        st.bytes_received += msg.size_bytes
        self._inbox.append(msg)
        if not self._cpu_busy:
            self._drain()

    def _drain(self) -> None:
        """Absorb the next queued message, if any, else report CPU free."""
        if self._cpu_busy:
            return
        if not self._inbox:
            self.on_cpu_free()
            return
        msg = self._inbox.pop(0)
        self._cpu_busy = True
        queue = self.sim.queue
        key = self._key
        self._key = key + 1
        # posted, not pushed: nothing ever cancels a handler completion
        if self._debug:
            queue.push(queue.now + self._handler_cost, key,
                       self._handled, tag=f"handle:{msg.kind}@{self.pid}",
                       arg=msg)
        else:
            queue.post(queue.now + self._handler_cost, key,
                       self._handled, msg)

    def _handled(self, msg: Message) -> None:
        self._cpu_busy = False
        self._stats.handler_time += self._handler_cost
        self.on_message(msg)
        self._drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} pid={self.pid}>"


def weak_callback(fn, host):
    """``fn`` as a component stores it: a method of ``host`` is re-bound
    to a weak proxy of ``host`` (anything else is kept as is), so the
    stored callback closes no cycle through its host."""
    if isinstance(fn, MethodType) and fn.__self__ is host:
        return MethodType(fn.__func__, weakref.proxy(host))
    return fn


__all__ = ["SimProcess", "weak_callback"]
