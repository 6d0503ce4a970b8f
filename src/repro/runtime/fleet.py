"""The owner side of a live fleet: processes, control connections, jobs.

A :class:`Fleet` is what the one-shot supervisor
(:func:`repro.runtime.supervisor.run_live`) and a serve lane
(:class:`repro.serve.fleet.Lane`) both drive: the coordinator of one
cluster of worker processes.  It owns the **listener** the workers dial
back to, the selector, and one **control connection per member**
(``broadcast``/``flush``/``drop``).  An accepted connection is nobody until
its first frame is a well-formed ``hello`` for a member slot with no
connection yet; anything else is closed and forgotten.  Protocol traffic
never comes this way: workers exchange ``msg`` frames over their own mesh
(:mod:`repro.runtime.mesh`), and a ``msg`` on a control connection is
dropped.

Its three waits are each a start and a step, the step taken after a
:meth:`Fleet.pump`: the **boot** (:meth:`~Fleet.start_boot`,
:meth:`~Fleet.booted`: every ``hello`` in, then one ``go`` with the peer
table), the **job** (:meth:`~Fleet.start_job`, :meth:`~Fleet.job_ended`:
one epoch-stamped ``job`` out, this epoch's reports in, deaths repaired or
failing it) and the **stop** (:meth:`~Fleet.terminate`,
:meth:`~Fleet.reaped`: SIGTERM, a grace period, SIGKILL, always
``join()``).  :meth:`Fleet.boot`, :meth:`Fleet.run_job` and
:meth:`Fleet.stop` loop them for an owner with nothing else to do, as
``run_live`` is; a lane takes one step per turn of the daemon's loop.
What differs between the owners stays with them, as hooks:
``on_hello(member)``, ``on_frame(member, frame)`` after the fleet's own
reading of every control frame, ``on_dead(member)``, and the ``turn``
callable :meth:`Fleet.run_job` runs once a turn.

:func:`assemble` is the other shared half: worker reports in, the
``(ExperimentResult, RunStats, MetricsRegistry, links)`` a simulated run
would have produced out.
"""

from __future__ import annotations

import collections
import ctypes
import gc
import multiprocessing
import os
import resource
import signal
import sys
import threading
import time
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Callable, Optional

import numpy as np

from ..core.config import OCLBConfig
from ..experiments.runner import ExperimentResult, RunConfig
from ..obs.registry import MetricsRegistry
from ..sim.errors import SimRuntimeError
from ..sim.stats import RunStats
from .codec import WireError, stats_from_wire
from .env import LIVE_QUANTUM, LIVE_SLICE_S
from .transport import (FramedConnection, InterestTable, open_listener,
                        unlink_quietly)
from .worker import main as worker_main

#: Wall grace between SIGTERM and SIGKILL while reaping.
GRACE_S = 2.0

#: Poll period while waiting for a member process to exit.
EXIT_POLL_S = 0.001

#: ``madvise`` advice (Linux 5.14+): fault a range in writable, which copies
#: every page still shared copy-on-write.  Resolved here, in the owner: a
#: fork must not take the dynamic loader's lock an owner thread may hold.
_MADV_POPULATE_WRITE = 23
_madvise = ctypes.CDLL(None).madvise
_madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
_madvise.restype = ctypes.c_int   # -1 before Linux 5.14: nothing copied
_PAGE = os.sysconf("SC_PAGE_SIZE")

#: Owner loop tick: bounds death-detection latency (a one-shot run's fault
#: schedule wakes the job loop sooner when it is due).
TICK_S = 0.05

#: Live-scale pacing: wall milliseconds, not the simulator's virtual
#: defaults — loopback RTTs are tens of microseconds, but real scheduling
#: jitter is milliseconds, so retries back off further than in the sim.
#: The ack timeout is twenty compute slices: a peer busy in one slice
#: answers long before it fires.
LIVE_WAVE_RETRY_S = 0.02
LIVE_PROBE_RETRY_S = 0.005
LIVE_ACK_TIMEOUT_S = 20 * LIVE_SLICE_S


def live_run_config(**fields) -> RunConfig:
    """The :class:`RunConfig` a live fleet runs: ``fields`` at live pacing.

    The one place the live defaults are applied — a one-shot run and every
    serve lane start from it, and the workers receive its ``to_wire()``.
    A field given as None takes its default: the live one, if any."""
    live = {k: v for k, v in fields.items() if v is not None}
    oclb = OCLBConfig(wave_retry=live.pop("wave_retry", LIVE_WAVE_RETRY_S),
                      probe_retry=live.pop("probe_retry", LIVE_PROBE_RETRY_S))
    live.setdefault("quantum", LIVE_QUANTUM)
    live.setdefault("ack_timeout", LIVE_ACK_TIMEOUT_S)
    return RunConfig(**live, oclb=oclb)


def log_tail(path: str, limit: int = 4096) -> str:
    """The last ``limit`` bytes of a worker's log ("" if unreadable)."""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - limit))
            return fh.read().decode("utf-8", "replace")
    except OSError:
        return ""


_FORK = multiprocessing.get_context("fork")

#: A forked child's inherited stdio objects: never flushed or finalised (an
#: owner thread may hold their locks; their buffers hold the owner's output)
_INHERITED: list = []


def spawn_worker(cfg: dict, log_path: str) -> multiprocessing.Process:
    """Fork this process into the worker ``cfg`` configures, after the
    caller preloaded what it runs (:func:`repro.runtime.worker.preload`);
    output is appended to ``log_path`` (a slot's history survives)."""
    proc = _FORK.Process(target=_forked, args=(cfg, log_path))
    proc.start()
    return proc


def _forked(cfg: dict, log_path: str) -> None:
    """A forked member's first steps: shed what it inherited from its
    owner, copy the pages it is known to write, then run the worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the owner coordinates
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))   # orderly exit
    # an inherited owner socket must never be finalised: by then its
    # descriptor number may be one of ours
    gc.freeze()
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    # fresh objects: an owner thread may have held the old ones' locks
    _INHERITED.extend((sys.stdout, sys.stderr))
    sys.stdout = open(1, "w", buffering=1, closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)
    # the owner's listener and selector, the other members' connections
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    cfg["copied"] = _own_pages()
    sys.exit(worker_main(cfg))


#: The members' ``pages`` reports, newest last: process-wide, as they
#: describe its address space; appended under the lock, read without it.
_learned: collections.deque = collections.deque(maxlen=8)
_learned_lock = threading.Lock()


def _learn_pages(raw) -> None:
    """Keep a member's report of every page it copied, up front or in the
    run (raw ``<i8`` page numbers, in order), for every later fork."""
    if type(raw) is bytes:
        with _learned_lock:
            _learned.append(np.frombuffer(raw, "<i8", len(raw) // 8))


def _pagemap(spans: list) -> np.ndarray:
    """The top bytes of the pagemap entries of ``spans`` (page ranges):
    bit 7 present, bit 0 ours alone; read 4,096 at a time (peak RSS)."""
    fd = os.open("/proc/self/pagemap", os.O_RDONLY)
    try:
        return np.concatenate([np.frombuffer(os.pread(
            fd, (min(at + 4096, end) - at) * 8, at * 8), "u1")[7::8].copy()
            for first, end in spans for at in range(first, end, 4096)])
    finally:
        os.close(fd)


def _pages(spans: list, index: np.ndarray) -> np.ndarray:
    """The page numbers of the entries ``index`` of :func:`_pagemap`."""
    at, end = np.array(spans, np.int64).reshape(-1, 2).T
    ends = (end - at).cumsum()
    span = ends.searchsorted(index, "right")
    return index - ends[span] + end[span]


def _own_pages() -> Callable:
    """Copy now, one ``madvise`` a run, the learned pages the owner has
    resident in a private writable mapping: their faults land before
    ``hello``, not in the run, and the resident set does not grow.
    Returns the first job's start, which returns its report.  Array
    methods only: a numpy function a fork runs first costs it faults."""
    try:
        with open("/proc/self/maps") as maps:
            spans = [tuple(int(b, 16) // _PAGE for b in line[:line.index(" ")]
                           .split("-")) for line in maps if " rw-p " in line]
        shared = _pagemap(spans) >= 0x80
    except OSError:   # no /proc: the pages are copied as they are written
        return lambda: None
    pages = _pages(spans, shared.nonzero()[0])
    known = np.zeros(len(pages), bool)
    for seen in filter(len, tuple(_learned)):   # sorted: a merge, no sort
        known |= seen.take(seen.searchsorted(pages), mode="clip") == pages
    hot = pages[known]
    cut = [0, *((hot[1:] - hot[:-1] != 1).nonzero()[0] + 1).tolist(), len(hot)]
    first = hot.tolist()
    copied = sum(end - at for at, end in zip(cut, cut[1:]) if end > at
                 and _madvise(first[at] * _PAGE, (end - at) * _PAGE,
                              _MADV_POPULATE_WRITE) == 0)

    def first_job() -> Callable:
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        def report(metrics: MetricsRegistry) -> bytes:
            """``fork.*`` gauges; the pages shared at the fork, ours now."""
            metrics.gauge("fork.prefault_pages").set(copied)
            metrics.gauge("fork.run_faults").set(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0)
            try:
                own = (shared & (_pagemap(spans) & 0x81 == 0x81)).nonzero()[0]
            except OSError:
                return b""
            return _pages(spans, own).tobytes()
        return report
    return first_job


class LiveRuntimeError(SimRuntimeError):
    """A live run or job failed (worker error, death, timeout, ...)."""


class Member:
    """One worker process, owner-side; its slot in ``Fleet.members`` is
    its protocol pid."""

    __slots__ = ("pid", "popen", "conn", "ospid", "peer", "code")

    def __init__(self, pid: int, popen: multiprocessing.Process) -> None:
        self.pid = pid
        self.popen = popen
        self.conn: Optional[FramedConnection] = None   # set by its hello
        self.ospid: Optional[int] = None
        self.peer: Optional[dict] = None     # data-plane endpoint
        self.code: Optional[int] = None      # exit code, once reaped

    def poll(self) -> Optional[int]:
        """The process's exit code; None while it runs."""
        return self.popen.exitcode if self.code is None else self.code

    def wait(self, timeout: float) -> Optional[int]:
        """:meth:`poll`, after up to ``timeout`` seconds (the child closed
        its end of the sentinel pipe: ``Process.join(timeout)`` blocks)."""
        end = time.monotonic() + timeout
        while self.poll() is None and time.monotonic() < end:
            time.sleep(EXIT_POLL_S)
        return self.poll()


class Worker(Member):
    """A member the fleet runs jobs on: its log and its standing in the
    job in flight."""

    __slots__ = ("log", "state")

    def __init__(self, pid: int, popen: multiprocessing.Process,
                 log: str = "") -> None:
        super().__init__(pid, popen)
        self.log = log
        #: boot (no job yet) | running | done | left | errored | aborted
        #: | dead
        self.state = "boot"

    def describe_exit(self, what: str) -> str:
        """``worker P <what> (exit C): <last log line>; see <log>``.  The
        connection drops before the process is gone: wait (up to
        :data:`GRACE_S`) for it to finish its traceback, so that the
        message can say what it was."""
        code = self.wait(GRACE_S)
        last = log_tail(self.log).strip().splitlines() or ["(empty log)"]
        return (f"worker {self.pid} {what} (exit {code}): {last[-1]}; "
                f"see {self.log}")


def _ignore(*_args) -> None:
    return None


#: The states of a member whose report of the job in flight is in.
_REPORTED = ("done", "left")


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
        self.members: list = []
        self.strays: list[FramedConnection] = []   # accepted, no hello yet
        self.on_hello: Callable = _ignore
        self.on_frame: Callable = _ignore
        self.on_dead: Callable = _ignore
        # the job in flight (None between jobs) and what it collected
        self.job: Optional[dict] = None
        self.epoch = 0                 # the last job's; 0 = no job yet
        self.deadline = 0.0            # of the boot, job or stop under way
        self.repair = False
        self.reports: dict[int, dict] = {}
        self.failure: Optional[tuple[str, str]] = None

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
                    self.drop(who)
                    if self.job is not None and who.state != "dead":
                        self._died(who)
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
                self._collect(m, frame)
                self.on_frame(m, frame)

    def _collect(self, m: Worker, frame: dict) -> None:
        """The fleet's own reading of a control frame: the job's reports,
        its first error and the abort acks (a frame stamped with another epoch is a
        straggler of a job already settled), and the receipts a fault-mode
        worker's ``bye`` adds to its report."""
        t = frame.get("t")
        if t == "bye":
            rep = self.reports.setdefault(m.pid, {})
            rep.update((k, frame[k]) for k in ("recv_log", "crash_dropped")
                       if k in frame)
        elif frame.get("epoch") != self.epoch:
            return
        elif t in _REPORTED:
            m.state = t
            _learn_pages(frame.pop("pages", None))
            self.reports[m.pid] = frame
            if t == "left":
                self.broadcast({"t": "left", "pid": m.pid}, skip=m.pid)
        elif t == "job_error":
            m.state = "errored"
            if self.failure is None:
                self.failure = (f"worker {m.pid}: "
                                f"{frame.get('error', 'job error')}",
                                frame.get("traceback", ""))
        elif t == "aborted":
            m.state = "aborted"

    # -- boot and jobs -------------------------------------------------------

    def boot(self, members: list, timeout_s: float, **go) -> None:
        """Start the spawned ``members``: wait for every ``hello`` (a member
        that exits first, or the deadline, fails the boot), then release
        them with one ``go`` - the peer table and the fields of ``go``."""
        self.start_boot(members, timeout_s, **go)
        while not self.booted():
            self.pump(TICK_S)

    def start_boot(self, members: list, timeout_s: float, **go) -> None:
        self.members = members
        self.deadline = time.monotonic() + timeout_s
        self._go = (timeout_s, go)

    def booted(self) -> bool:
        """True once every member said hello and ``go`` went out; raises
        if the boot failed."""
        if any(m.conn is None for m in self.members):
            for m in self.members:
                if m.conn is None and m.poll() is not None:
                    raise LiveRuntimeError(
                        m.describe_exit("died unexpectedly"))
            if time.monotonic() > self.deadline:
                raise LiveRuntimeError(
                    f"fleet handshake timed out after {self._go[0]}s; "
                    f"logs in {self.run_dir}")
            return False
        self.broadcast({"t": "go", "peers": {
            str(m.pid): m.peer for m in self.members}, **self._go[1]})
        return True

    def run_job(self, job: dict,
                turn: Callable[[], Optional[float]] = _ignore,
                repair: bool = False) -> Optional[tuple[str, str]]:
        """Run one ``job`` frame (``app``, ``run``, ``timeout_s``, ``id``,
        ``epoch``) on the booted fleet to its end: None once every member
        still alive reported ``done`` or ``left`` (:attr:`reports`), else
        its one failure as ``(error, detail)`` - a ``job_error`` and its
        traceback, a death's exit code and last log line and its log's
        tail, or the deadline.  ``turn`` runs once a turn (the one-shot
        fault schedule) and returns the seconds until it wants the next
        one (None: a :data:`TICK_S` tick will do).  With ``repair`` a
        death is announced for the survivors to splice around; without,
        it fails the job."""
        self.start_job(job, repair)
        wait = TICK_S
        while True:
            self.pump(wait)
            due = turn()
            wait = TICK_S if due is None else min(TICK_S, due)
            if self.job_ended():
                return self.failure

    def start_job(self, job: dict, repair: bool = False) -> None:
        self.job, self.epoch, self.repair = job, job["epoch"], repair
        self.reports, self.failure = {}, None
        for m in self.members:
            if m.state != "dead":
                m.state = "running"
        self.broadcast(job)
        self.flush()
        self.deadline = time.monotonic() + float(job["timeout_s"])

    def job_ended(self) -> bool:
        """True once the job ended, with every report in or with
        :attr:`failure`; :attr:`job` is then None."""
        job = self.job
        for m in self.members:
            if m.state not in _REPORTED + ("dead",) and m.poll() is not None:
                if m.conn is not None and not m.conn.closed:
                    self.drain(m)   # what it flushed before exiting
                self._died(m)
        if self.failure is None and not all(
                m.state in _REPORTED + ("dead",) for m in self.members):
            if time.monotonic() <= self.deadline:
                return False
            self.failure = (f"job {job.get('id')} timed out after "
                            f"{job['timeout_s']}s; logs in {self.run_dir}",
                            "")
        self.job = None
        return True

    def _died(self, m: Worker) -> None:
        """``m`` died mid-job: with repair, announce the death (unless
        ``m`` never said hello: a joiner nobody grafted); without, or once
        nobody is left, fail the job.  A member that already reported
        this epoch stays reported: its report is its account of the job,
        and only the survivors still running hear of the death."""
        if m.state == "left":
            return   # its departure was announced already
        reported = m.state == "done"
        said_hello = m.conn is not None
        if not reported:
            m.state = "dead"
        self.drop(m)
        self.on_dead(m)
        if self.repair and any(w.state != "dead" for w in self.members):
            if said_hello:
                self.broadcast({"t": "dead", "pid": m.pid})
        elif not reported and self.failure is None:
            lost = (f"all {len(self.members)} workers died; "
                    if self.repair else "")
            self.failure = (lost + m.describe_exit("died unexpectedly"),
                            log_tail(m.log))

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
        self.terminate()
        while not self.reaped():
            time.sleep(EXIT_POLL_S)

    def terminate(self) -> None:
        """``shutdown`` and SIGTERM to every member."""
        self.broadcast({"t": "shutdown"})
        self.flush()
        for m in self.members:
            if m.poll() is None:
                m.popen.terminate()
        self.deadline = time.monotonic() + GRACE_S

    def reaped(self) -> bool:
        """False while a member runs and the grace lasts; then SIGKILL
        what still runs, reap every member (keeping its exit code) and
        close its connection."""
        alive = [m for m in self.members if m.poll() is None]
        if alive and time.monotonic() < self.deadline:
            return False
        for m in alive:
            m.popen.kill()
        for m in self.members:
            if m.code is None:   # reap, release the sentinel, keep the code
                m.popen.join()
                m.code = m.popen.exitcode
                m.popen.close()
            self.drop(m)
            if self._unix_path is not None:   # stale data-plane socket
                unlink_quietly(os.path.join(self.run_dir,
                                            f"peer_{m.pid}.sock"))
        for conn in self.strays:
            self._close(conn)
        self.strays.clear()
        return True

    def close(self) -> None:
        """:meth:`stop`, then release the listener, the selector and the
        owner's hooks (bound methods of the owner, which holds the fleet:
        a closed fleet keeps no cycle alive)."""
        self.stop()
        self.sel.close()
        self.listener.close()
        unlink_quietly(self._unix_path)
        self.on_hello = self.on_frame = self.on_dead = _ignore


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

    result = ExperimentResult.of(
        protocol, n, stats, optimum=optimum,
        msgs_lost=stats.fault_totals()[0] + drops)
    return result, stats, metrics, links


__all__ = ["Fleet", "GRACE_S", "LIVE_ACK_TIMEOUT_S", "LIVE_PROBE_RETRY_S",
           "LIVE_WAVE_RETRY_S", "LiveRuntimeError", "Member", "TICK_S",
           "Worker", "assemble", "live_run_config", "log_tail",
           "spawn_worker"]
