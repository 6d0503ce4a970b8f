"""The owner side of a live fleet: processes, control connections, reports.

A :class:`Fleet` is what the one-shot supervisor
(:func:`repro.runtime.supervisor.run_live`) and a serve lane
(:class:`repro.serve.fleet.Lane`) both are underneath: the coordinator of
one cluster of worker processes.  It owns

* the **listener** the workers dial back to, and the selector;
* **identification** — an accepted connection is nobody until its first
  frame is a well-formed ``hello`` naming a member slot that has no
  connection yet; anything else (garbage, an out-of-range pid, a second
  ``hello`` for a registered pid) is closed and forgotten, and the first
  registration stands;
* one **control connection per member**, ``broadcast``/``flush``/
  ``drop``.  Protocol traffic never comes this way: workers exchange
  ``msg`` frames over their own mesh (:mod:`repro.runtime.mesh`), so no
  node sees all the traffic, and a ``msg`` that does turn up on a control
  connection is dropped — not forwarded, not handed to the owner;
* **reaping** — SIGTERM, a grace period, SIGKILL, and always ``wait()``.

What differs between the owners stays with them, as three hooks:
``on_hello(member)``, ``on_frame(member, frame)`` for every control
frame, ``on_eof(member)``.

:func:`assemble` is the other shared half: worker reports in, the
``(ExperimentResult, RunStats, MetricsRegistry, links)`` a simulated run
would have produced out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Callable, Optional

from ..experiments.runner import ExperimentResult
from ..obs.registry import MetricsRegistry
from ..sim.stats import RunStats
from .codec import WireError, stats_from_wire
from .transport import (FramedConnection, InterestTable, open_listener,
                        unlink_quietly)

#: Wall grace between SIGTERM and SIGKILL while reaping.
GRACE_S = 2.0


def spawn_worker(module: str, doc: dict, log_path: str) -> subprocess.Popen:
    """Start ``python -m <module> '<json doc>'`` with this checkout on its
    path; output is appended to ``log_path`` (a slot's history survives
    its respawns)."""
    import repro
    env = os.environ.copy()
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part)
    with open(log_path, "ab") as log:   # the child holds its own descriptor
        return subprocess.Popen(
            [sys.executable, "-m", module, json.dumps(doc)],
            stdout=log, stderr=subprocess.STDOUT, env=env)


class Member:
    """One worker process, owner-side; its slot in ``Fleet.members`` is
    its protocol pid."""

    __slots__ = ("pid", "popen", "conn", "ospid", "peer")

    def __init__(self, pid: int, popen: subprocess.Popen) -> None:
        self.pid = pid
        self.popen = popen
        self.conn: Optional[FramedConnection] = None   # set by its hello
        self.ospid: Optional[int] = None
        self.peer: Optional[dict] = None     # data-plane endpoint


def _ignore(*_args) -> None:
    return None


class Fleet(InterestTable):
    """Listener, selector and member connections of one worker fleet
    (see module docstring).  The owner fills :attr:`members`."""

    def __init__(self, run_dir: str, transport: str = "tcp",
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.run_dir = run_dir
        self._unix_path = (os.path.join(run_dir, "fleet.sock")
                           if transport == "unix" else None)
        self.listener, self.endpoint = open_listener(
            transport, host=host, port=port, path=self._unix_path)
        self.listener.setblocking(False)
        self.sel = DefaultSelector()
        self._interest: dict[int, int] = {}   # fd -> registered event mask
        self.set_interest(self.listener, EVENT_READ, None)
        self.members: list[Member] = []
        self.strays: list[FramedConnection] = []   # accepted, no hello yet
        self.on_hello: Callable = _ignore
        self.on_frame: Callable = _ignore
        self.on_eof: Callable = _ignore

    def _close(self, conn: FramedConnection) -> None:
        self.forget_sock(conn.sock)
        conn.close()

    # -- the turn ------------------------------------------------------------

    def pump(self, timeout: float) -> None:
        """One turn: wait, accept, identify, hand the owner its frames,
        flush.  EVENT_WRITE only wakes the loop for a backlog."""
        for m in self.members:
            c = m.conn
            if c is not None and not c.closed:
                self.set_interest(c.sock, EVENT_READ
                                  | (EVENT_WRITE if c.wants_write else 0), m)
        for key, _mask in self.sel.select(timeout=timeout):
            who = key.data
            if who is None:
                self._accept()
            elif isinstance(who, FramedConnection):
                self._identify(who)
            elif not who.conn.closed:   # else: stale event of this batch
                self.drain(who)
                if who.conn.eof:
                    self.on_eof(who)
        self.flush()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self.listener.accept()
            except OSError:   # drained (EAGAIN), or the peer already left
                return
            self.adopt(sock)

    def adopt(self, sock) -> None:
        """Take a connected socket in as a stray awaiting its ``hello``
        (accepted from the listener, or handed over by an in-process
        test)."""
        conn = FramedConnection(sock)
        self.strays.append(conn)
        self.set_interest(sock, EVENT_READ, conn)

    def _identify(self, conn: FramedConnection) -> None:
        """A stray connection spoke or closed.  Its first frame must be a
        ``hello`` for a slot nobody holds; the loopback listener is open
        to any local process, so everything else is shown the door."""
        try:
            frames = conn.receive()
        except WireError:
            frames = [{}]   # not a frame stream at all
        if not frames and not conn.eof:
            return
        hello = frames[0] if frames else {}
        pid = hello.get("pid")
        self.strays.remove(conn)
        if (hello.get("t") == "hello" and type(pid) is int
                and 0 <= pid < len(self.members)
                and self.members[pid].conn is None):
            m = self.members[pid]
            m.conn = conn
            m.ospid = hello.get("ospid")
            m.peer = hello.get("peer")
            self.sel.modify(conn.sock, EVENT_READ, m)
            self.on_hello(m)
            self._dispatch(m, frames[1:])   # rode in behind the hello
        else:
            self._close(conn)

    def drain(self, m: Member) -> None:
        """Read everything ``m`` has sent (also after its process exited:
        what it flushed before dying still counts)."""
        self._dispatch(m, m.conn.receive())

    def _dispatch(self, m: Member, frames: list) -> None:
        for frame in frames:
            if frame.get("t") != "msg":   # the data plane is not ours
                self.on_frame(m, frame)

    # -- outbound ------------------------------------------------------------

    def broadcast(self, frame: dict, skip: int = -1) -> None:
        for m in self.members:
            if m.conn is not None and m.pid != skip:
                m.conn.send_frame(frame)   # a closed connection ignores it

    def flush(self) -> None:
        for m in self.members:
            if m.conn is not None and m.conn.wants_write:
                m.conn.flush()

    def drop(self, m: Member) -> None:
        """Close ``m``'s connection.  The closed connection stays in its
        slot, so a late second ``hello`` for the pid is still refused."""
        if m.conn is not None:
            self._close(m.conn)

    # -- teardown ------------------------------------------------------------

    def stop(self) -> None:
        """End every member process and connection; the listener stays
        (a lane boots its next fleet on it).  Always reaps: SIGTERM, then
        SIGKILL after :data:`GRACE_S`."""
        self.broadcast({"t": "shutdown"})
        self.flush()
        alive = [m for m in self.members if m.popen.poll() is None]
        for m in alive:
            m.popen.terminate()
        end = time.monotonic() + GRACE_S
        for m in alive:
            try:
                m.popen.wait(timeout=max(0.0, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                m.popen.kill()
            m.popen.wait()
        for m in self.members:
            self.drop(m)
            if self._unix_path is not None:   # stale data-plane socket
                unlink_quietly(os.path.join(self.run_dir,
                                            f"peer_{m.pid}.sock"))
        for conn in self.strays:
            self._close(conn)
        self.strays.clear()

    def close(self) -> None:
        """:meth:`stop`, then release the listener and the selector."""
        self.stop()
        self.sel.close()
        self.listener.close()
        unlink_quietly(self._unix_path)


# -- result assembly ---------------------------------------------------------

def assemble(protocol: str, n: int, slots: int, reports: dict, *,
             t_go: float, crashed: Optional[dict] = None,
             spools: Optional[dict] = None, wall_s: float = 0.0):
    """Worker reports -> ``(ExperimentResult, RunStats, MetricsRegistry,
    links)``, the shape :func:`repro.experiments.runner.run_instrumented`
    returns for a simulated run.

    ``reports`` maps pid to its ``done``/``left`` frame (a report without
    ``stats`` — a lone ``bye`` — contributes nothing here).  Each worker
    stamps times against its own start; they are aligned on the reported
    ``t0`` anchors, ``t_go`` (the owner's start instant, epoch seconds)
    standing in where one is missing.  ``crashed`` maps each dead pid to
    the seconds after go it was killed at (None: it died on its own) and
    ``spools`` to its last committed spool.  Per-link traffic and
    partition drops are what the workers' meshes counted, sender-side.
    """
    spools = spools or {}
    stats = RunStats.create(slots)
    t0s = {pid: float(rep["t0"]) for pid, rep in reports.items()
           if "t0" in rep}
    base = min(t0s.values(), default=t_go)
    makespan = work_done = 0.0
    optimum = None
    links: dict = {}
    drops = 0
    metrics = MetricsRegistry()
    for pid, rep in reports.items():
        if "stats" not in rep:
            continue
        ps = stats_from_wire(rep["stats"], pid)
        off = t0s.get(pid, t_go) - base
        if ps.finish_time > 0.0:
            ps.finish_time += off
        makespan = max(makespan, ps.finish_time)
        work_done = max(work_done, rep.get("work_done", 0.0) + off)
        stats.per_process[pid] = ps
        opt = rep.get("optimum")
        if opt is not None and (optimum is None or opt < optimum):
            optimum = opt
        for dst, counts in rep.get("links", {}).items():
            links[(pid, int(dst))] = (int(counts[0]), int(counts[1]))
        drops += rep.get("part_drops", 0)
        metrics.absorb(rep.get("metrics", {}))
    kills = 0
    for pid, killed_at in (crashed or {}).items():
        ps = stats.per_process[pid]
        ps.crashes = 1
        if killed_at is not None:
            kills += 1
            ps.crash_time = killed_at + (t_go - base)
        if pid in spools:
            # the dead worker's processed units count, exactly as the
            # simulator's stats keep counting up to the crash instant
            ps.work_units = spools[pid]["processed"]
    stats.makespan = makespan if makespan > 0.0 else wall_s
    stats.work_done_time = work_done
    stats.seal()

    metrics.gauge("engine.makespan_s").set(stats.makespan)
    if kills:
        metrics.counter("engine.crashes").inc(kills)
    if drops:
        metrics.counter("live.partition_drops").inc(drops)

    lost, dup, rexmit, crashes, repairs = stats.fault_totals()
    result = ExperimentResult(
        protocol=protocol, n=n, makespan=stats.makespan,
        work_done_time=stats.work_done_time,
        total_units=stats.total_work_units, total_msgs=stats.total_msgs,
        total_steals=stats.total_steals, msgs_by_pid=stats.msgs_by_pid(),
        optimum=optimum, events=0, msgs_lost=lost + drops,
        msgs_duplicated=dup, retransmits=rexmit, crashes=crashes,
        repairs=repairs, breaker_opens=stats.total_breaker_opens())
    return result, stats, metrics, links


__all__ = ["Fleet", "GRACE_S", "Member", "assemble", "spawn_worker"]
