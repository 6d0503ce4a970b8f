"""`LiveEnv`: the wall-clock execution environment of one live worker.

Protocol code (``core/worker.py``, ``core/oclb.py``, ``core/termination.py``,
``core/reliable.py``, the baselines) never imports the engine — it talks to
``self.sim`` through a narrow surface: ``queue.now`` / ``queue.push``
(clock + timers), ``transmit`` (transport), ``compute`` (a worker's
quanta), ``network.handler_cost``, ``stats``, ``metrics``, ``debug``,
``seed``, ``fuse_active`` (False here), and the fault trio
(``faults`` / ``is_crashed`` / ``peer_logged``).  This module implements
that exact surface over a monotonic wall clock, a timer heap and the
process's peer mesh, so a :class:`~repro.core.oclb.OverlayWorker` built
by :func:`repro.experiments.runner.worker_factory` runs on a real process
unchanged:

* a simulated send becomes a frame queued straight onto the destination
  worker's connection (:mod:`repro.runtime.mesh`); the reactor flushes it;
* a simulated timer becomes a heap entry the worker's selector loop fires
  when its wall deadline passes;
* a compute quantum becomes a *slice*: :meth:`LiveEnv.compute` parks it
  and the reactor computes at most one per turn
  (:meth:`LiveEnv.run_slice`), timed on the wall clock;
* ``handler_cost`` is 0 — handling takes whatever it really takes;
* ``is_crashed`` consults the death announcements the supervisor
  broadcasts (its EOF/child-exit watch is the failure detector), and
  ``peer_logged`` reads the on-disk spool the dead worker left behind —
  the *actual* stable receive log the simulator only models
  (:meth:`repro.sim.engine.Simulator.peer_logged`).

Fidelity caveats vs the simulator are catalogued in ``docs/runtime.md``.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Optional

from ..sim.errors import SimRuntimeError
from ..sim.messages import Message
from ..sim.stats import RunStats
from .codec import message_to_frame
from .mesh import PeerMesh
from .spool import read_spool, spool_path

#: Work units per live compute slice, the default ``quantum`` of every live
#: run and serve lane.  A reactor turn computes at most one slice, so this
#: is how many units a worker processes between two reads of its sockets
#: (docs/runtime.md, "The live quantum").
LIVE_QUANTUM = 2048


class _LiveTimer:
    """Heap entry duck-compatible with :class:`repro.sim.events.Event`."""

    __slots__ = ("time", "action", "arg", "cancelled")

    def __init__(self, time: float, action: Callable, arg: Any) -> None:
        self.time = time
        self.action = action
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class WallTimerQueue:
    """Deadline heap over the monotonic clock; the env's ``queue``."""

    __slots__ = ("_t0", "_heap", "_seq")

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._heap: list[tuple[float, int, _LiveTimer]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Wall seconds since this environment started."""
        return time.monotonic() - self._t0

    def push(self, time: float, key: int, action: Callable, tag: str = "",
             arg: Any = None) -> _LiveTimer:
        """Schedule ``action`` at wall time ``time`` (same shape as the
        simulator's ``queue.push``; ``key`` and ``tag`` are accepted and
        dropped: equal deadlines fire in push order)."""
        ev = _LiveTimer(time, action, arg)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def post(self, time: float, key: int, action: Callable,
             arg: Any = None) -> None:
        """:meth:`push` without handing back the handle (the simulator's
        ``queue.post`` shape: a handler completion nobody cancels)."""
        self.push(time, key, action, arg=arg)

    def next_deadline(self) -> Optional[float]:
        """Earliest pending deadline (skips cancelled heads)."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def fire_due(self) -> int:
        """Run every timer whose deadline has passed, including the
        zero-delay ones they schedule (a handler chain ends with the
        frames the turn pumped: compute never rides this heap)."""
        fired = 0
        heap = self._heap
        while heap:
            when, _, ev = heap[0]
            if ev.cancelled:
                heapq.heappop(heap)
                continue
            if when > self.now:
                break
            heapq.heappop(heap)
            fired += 1
            if ev.arg is not None:
                ev.action(ev.arg)
            else:
                ev.action()
        return fired


class LiveFaults:
    """Death knowledge fed by the supervisor's announcements.

    Duck-types the slice of :class:`repro.sim.faults.FaultController` the
    protocols consult: existence (``sim.faults is not None`` switches the
    fault machinery on) and the ``crashed`` pid set.
    """

    __slots__ = ("crashed",)

    def __init__(self) -> None:
        self.crashed: set[int] = set()


class LiveNetwork:
    """Stand-in for the simulator's network model: the wire is real, so
    nothing is priced here (``handler_cost`` exists because the base
    process consults it when scheduling message absorption)."""

    __slots__ = ()
    handler_cost = 0.0


class LiveEnv:
    """Execution environment of one live worker process."""

    #: a live quantum is computed, never fused (:attr:`Simulator.fuse_active`)
    fuse_active = False

    def __init__(self, pid: int, n: int, mesh: PeerMesh, *,
                 seed: int = 0, fault_mode: bool = False,
                 run_dir: Optional[str] = None, metrics=None,
                 debug: bool = False, frame_tag: int = 0) -> None:
        self.pid = pid
        self.n = n                      # pid slots (base fleet + max joins)
        self.mesh = mesh                # the data plane
        self.seed = seed
        self.debug = debug
        self.metrics = metrics
        self.queue = WallTimerQueue()
        self.network = LiveNetwork()
        # full-width stats so per_process indexes like the simulator's;
        # only this pid's row accrues (the supervisor assembles the rest)
        self.stats = RunStats.create(n)
        self.faults: Optional[LiveFaults] = (LiveFaults() if fault_mode
                                             else None)
        self.run_dir = run_dir
        self.proc = None
        #: a compute slice the process asked for, run by :meth:`run_slice`
        self.slice_parked = False
        self._spool_cache: dict[int, Optional[dict]] = {}
        #: the job's epoch, stamped onto every outbound ``msg`` frame as
        #: ``"j"``: a fleet runs its jobs over one mesh, and the receiving
        #: reactor drops a straggler from an earlier epoch on its tag
        self.frame_tag = frame_tag

    # -- wiring ----------------------------------------------------------------

    def attach(self, proc) -> None:
        """Adopt ``proc`` as the (single) process this env executes."""
        if proc.pid != self.pid:
            raise SimRuntimeError(
                f"env for pid {self.pid} cannot run pid {proc.pid}")
        proc.sim = self
        proc._stats = self.stats.per_process[self.pid]
        self.proc = proc

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.queue.now

    # -- transport -------------------------------------------------------------

    def transmit(self, msg: Message) -> None:
        """A protocol send: queue its frame on the data plane."""
        if not (0 <= msg.dst < self.n):
            raise SimRuntimeError(f"message to unknown process {msg.dst}")
        st = self.stats.per_process[self.pid]
        st.msgs_sent += 1
        st.bytes_sent += msg.size_bytes
        msg.send_time = self.now
        if msg.dst == self.pid:
            # self-sends loop locally through the timer queue
            self.queue.push(self.now, 0, self.proc._arrive, arg=msg)
            return
        frame = message_to_frame(msg)
        frame["j"] = self.frame_tag
        self.mesh.send(frame)

    def deliver(self, msg: Message) -> None:
        """A peer's frame arrived for our process."""
        self.proc._arrive(msg)

    # -- compute -------------------------------------------------------------

    def compute(self, proc) -> None:
        """``proc`` wants its next quantum.  It is computed by the next
        :meth:`run_slice`, not now: the reactor runs one slice per turn,
        after the turn's frames and due timers (idempotent)."""
        self.slice_parked = True

    def run_slice(self) -> None:
        """Compute the parked slice, if it is still wanted, and run its
        boundary, then the queue or the next slice.  The wall time it took
        is the process's ``busy_time`` (the simulator prices it instead)."""
        if not self.slice_parked:
            return
        self.slice_parked = False
        proc = self.proc
        # a handler since the park may have taken the pool or the CPU, or
        # started a leave; whoever did re-parks if compute is still due
        if (proc._cpu_busy or proc.terminated or proc.leaving
                or proc.work.is_empty()):
            return
        t0 = time.perf_counter()
        outcome = proc.app.process(proc.work, proc.cfg.quantum, proc.shared)
        proc.stats.busy_time += time.perf_counter() - t0
        if proc._count_quantum(outcome):
            proc._quantum_done(outcome.units, outcome.improved)
            proc._drain()

    # -- work accounting -------------------------------------------------------

    def note_work_done(self) -> None:
        if self.now > self.stats.work_done_time:
            self.stats.work_done_time = self.now

    # -- failure detection -----------------------------------------------------

    def is_crashed(self, pid: int) -> bool:
        return self.faults is not None and pid in self.faults.crashed

    def note_reliable_delivery(self, dst_pid: int, src_pid: int,
                               seq: int) -> None:
        """No-op: the live runtime's receive log is the on-disk spool,
        committed by the worker itself before the RACK leaves."""

    def mark_dead(self, pid: int) -> None:
        """Supervisor announced a death: absorb it and run the repair
        machinery exactly as the simulator's perfect FD would."""
        if self.faults is None or pid in self.faults.crashed:
            return
        self.faults.crashed.add(pid)
        proc = self.proc
        ch = getattr(proc, "_reliable", None)
        if ch is not None:
            # settles unacked transfers (recovering unlogged WORK via the
            # dead peer's spool) and feeds learn_dead -> splice/adopt
            ch.peer_crashed(pid)
        elif hasattr(proc, "learn_dead"):
            proc.learn_dead(pid)

    def mark_left(self, pid: int) -> None:
        """Supervisor announced a graceful leave.  Protocol-wise identical
        to a death — the peer's spool is final, its receive log complete,
        and the overlay must splice around it — but the supervisor keeps
        the distinction for the result accounting (a leaver is a survivor:
        it reported its stats before departing)."""
        self.mark_dead(pid)

    def peer_logged(self, dead_pid: int, src_pid: int, seq: int) -> bool:
        """Read the dead peer's write-ahead spool (its stable receive log).

        The spool is final by the time a death is announced — the process
        is gone, and its last commit hit the disk atomically — so the
        answer is cached.  A missing spool means the peer died before
        logging anything: recover everything.
        """
        if dead_pid not in self._spool_cache:
            self._spool_cache[dead_pid] = (
                read_spool(spool_path(self.run_dir, dead_pid))
                if self.run_dir else None)
        doc = self._spool_cache[dead_pid]
        if doc is None:
            return False
        return seq in doc.get("recv_log", {}).get(str(src_pid), ())


__all__ = ["LIVE_QUANTUM", "LiveEnv", "LiveFaults", "LiveNetwork",
           "WallTimerQueue"]
