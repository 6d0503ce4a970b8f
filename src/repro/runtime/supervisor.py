"""Live-run supervisor: spawn N workers, detect deaths, collect results.

One supervisor process per live run.  Underneath it is a
:class:`~repro.runtime.fleet.Fleet` — listener, ``hello`` identification,
one control connection per worker, reaping — the same coordinator a serve
lane drives.  The supervisor is control plane only: protocol traffic
flows over direct worker<->worker connections (:mod:`repro.runtime.mesh`)
and never through this process.  What this module adds is what is
specific to a one-shot run:

* **start** — ``go`` is released only after all n workers said ``hello``,
  so nobody computes before the fleet is routable.  The membership
  :class:`Registry` records each worker's data-plane endpoint and ``go``
  hands every member its peers' addresses.
* **fault schedule** — a planned kill delivers a real ``SIGKILL`` to the
  victim's OS process, after a wall delay or once the victim's spool
  shows it has processed a minimum number of units (deterministic enough
  for CI); planned partitions ride ``go`` as windows each worker's mesh
  applies sender-side; mid-run **joins** (spawn a worker, assign its
  overlay position, announce it) and graceful **leaves** (order a worker
  out; it drains its pool to its parent and reports ``left``) keep
  membership elastic.
* **failure detector** — a worker EOF (or child exit) before its ``done``
  report is a death; the supervisor broadcasts ``dead`` announcements and
  the workers' repair machinery splices the overlay around the corpse.
* **collector** — ``done``/``left`` reports go through
  :func:`~repro.runtime.fleet.assemble` into the same
  ``(ExperimentResult, RunStats)`` pair the simulator's
  :func:`~repro.experiments.runner.run_instrumented` returns; per-worker
  NDJSON trace shards are merged into one schema-1 trace, and — in fault
  mode — the exact four-place work-conservation identity is evaluated
  over the survivors' reports and the dead workers' spools
  (:func:`repro.runtime.spool.conserved_units_live`).

SIGINT/SIGTERM drain the fleet (abort-shutdown broadcast, SIGTERM, grace
period, SIGKILL) and release every socket; the ``finally`` teardown runs
on all exits, so no code path leaks children or FDs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..experiments.runner import ExperimentResult, RunConfig
from ..experiments.specs import AppSpec
from ..obs.export import TraceWriter
from ..obs.registry import MetricsRegistry
from ..sim.errors import SimConfigError, SimRuntimeError
from ..sim.rng import RngStream
from ..sim.stats import RunStats
from ..sim.trace import CRASH, PARTITION
from .env import LIVE_QUANTUM
from .fleet import (GRACE_S, Fleet, Member, assemble, live_run_config,
                    log_tail, spawn_worker)
from .spool import conserved_units_live, read_spool, spool_path

#: Supervisor loop tick: bounds kill-trigger and watchdog latency.
_TICK_S = 0.05
#: Poll period while the workers, shut down and hung up, finalise.
_REAP_POLL_S = 0.001

#: Protocols whose overlay supports elastic membership (grafted leaves).
_TREE_PROTOCOLS = ("TD", "TR", "BTD", "BTR")


class LiveRuntimeError(SimRuntimeError):
    """A live run failed (worker error, handshake timeout, ...)."""


class LiveAborted(Exception):
    """The run was interrupted (SIGINT/SIGTERM); workers were drained."""


@dataclass(slots=True)
class LiveConfig:
    """One live run (the wall-clock analogue of :class:`RunConfig`)."""

    protocol: str = "BTD"
    n: int = 4
    app: dict = field(default_factory=lambda: {"kind": "uts",
                                               "preset": "bin_tiny"})
    dmax: int = 10
    sharing: str = "proportional"
    quantum: int = LIVE_QUANTUM
    seed: int = 0
    transport: str = "tcp"          # "tcp" (loopback) or "unix"
    host: str = "127.0.0.1"
    port: int = 0                   # preferred port; 0 = ephemeral
    run_dir: Optional[str] = None   # artifacts dir (default: a tempdir)
    trace: bool = False             # per-worker NDJSON shards + merged trace
    fault_tolerance: bool = False   # reliable channel + spools + repair
    #: accepted for callers that still pass it: the peer mesh is the only
    #: data plane, so True is the only value
    p2p: bool = True
    #: preferred data-plane TCP port for pid p is ``peer_port_base + p``
    #: (0 = every worker binds an ephemeral port)
    peer_port_base: int = 0
    #: planned mid-run joins: each ``{"pid": p, "after_s": t}``
    #: with consecutive pids n, n+1, ... — the supervisor spawns the
    #: worker t seconds after ``go``, assigns its overlay position and
    #: announces it to the fleet
    joins: tuple = ()
    #: planned graceful leaves: each ``{"pid": p, "after_s": t}``
    #: — the worker drains its pool to its parent and departs
    leaves: tuple = ()
    #: planned SIGKILLs: each ``{"pid": p, "after_s": t}`` or
    #: ``{"pid": p, "after_units": u}`` (kill once p's spool shows >= u
    #: processed units — the deterministic choice for tests/CI)
    kills: tuple = ()
    #: planned network partitions: each ``{"side": [pids], "start_s": t0,
    #: "end_s": t1}`` (wall seconds after ``go``).  While a window is
    #: active every ``msg`` frame crossing the cut is dropped, sender-side,
    #: by each worker's mesh — iptables-free splits at the transport layer.
    #: Control frames (``go``/``dead``/``shutdown``/membership news)
    #: always flow: the supervisor itself is
    #: never partitioned from its workers, only workers from each other,
    #: so death announcements and spool recovery keep the ``kill -9``
    #: guarantee across splits.
    partitions: tuple = ()
    timeout_s: float = 120.0
    #: live pacing overrides forwarded to the workers (None = the live
    #: defaults of :func:`repro.runtime.fleet.live_run_config`)
    ack_timeout: Optional[float] = None
    wave_retry: Optional[float] = None
    probe_retry: Optional[float] = None
    #: reliable-channel breaker overrides (None = the worker defaults:
    #: legacy backoff ceiling, threshold 4)
    ack_max_backoff: Optional[float] = None
    breaker_threshold: Optional[int] = None

    @property
    def slots(self) -> int:
        """Total pid slots: the base fleet plus every planned join."""
        return self.n + len(self.joins)

    def __post_init__(self) -> None:
        self.run_config()               # the run's own settings
        AppSpec.from_wire(self.app)     # shallow: kind and field types
        if self.transport not in ("tcp", "unix"):
            raise SimConfigError(f"unknown transport {self.transport!r}")
        if not self.p2p:
            raise SimConfigError(
                "p2p=False: the star relay was removed, the peer mesh is "
                "the only data plane")
        if ((self.kills or self.partitions or self.joins or self.leaves)
                and not self.fault_tolerance):
            raise SimConfigError(
                "planned kills, partitions, joins and leaves require "
                "fault_tolerance=True (spools, splice/adopt machinery)")
        for k in self.kills:
            pid = k.get("pid")
            if not isinstance(pid, int) or not (0 < pid < self.n):
                raise SimConfigError(
                    f"kill target must be a non-root pid < n, got {k!r}")
            if ("after_s" in k) == ("after_units" in k):
                raise SimConfigError(
                    f"kill needs exactly one of after_s/after_units: {k!r}")
        if ((self.joins or self.leaves)
                and self.protocol not in _TREE_PROTOCOLS):
            raise SimConfigError(
                f"elastic membership needs a tree protocol "
                f"({'/'.join(_TREE_PROTOCOLS)}), not {self.protocol}")
        join_pids = sorted(j.get("pid") for j in self.joins)
        if join_pids != list(range(self.n, self.n + len(self.joins))):
            raise SimConfigError(
                f"join pids must be consecutive from n={self.n}, "
                f"got {join_pids}")
        for j in self.joins:
            t = j.get("after_s")
            if not isinstance(t, (int, float)) or t < 0:
                raise SimConfigError(f"join needs after_s >= 0: {j!r}")
        kill_pids = {k["pid"] for k in self.kills}
        seen_leave: set[int] = set()
        for lv in self.leaves:
            pid, t = lv.get("pid"), lv.get("after_s")
            if not isinstance(pid, int) or not (0 < pid < self.slots):
                raise SimConfigError(
                    f"leave target must be a non-root pid < n + joins, "
                    f"got {lv!r}")
            if pid in seen_leave:
                raise SimConfigError(f"duplicate leave for pid {pid}")
            if pid in kill_pids:
                raise SimConfigError(
                    f"pid {pid} cannot both leave and be killed")
            if not isinstance(t, (int, float)) or t < 0:
                raise SimConfigError(f"leave needs after_s >= 0: {lv!r}")
            seen_leave.add(pid)
        for p in self.partitions:
            side = p.get("side")
            if (not isinstance(side, (list, tuple)) or not side
                    or any(not isinstance(q, int)
                           or not (0 <= q < self.slots) for q in side)):
                raise SimConfigError(
                    f"partition side must be a nonempty list of pids < "
                    f"n + joins, got {p!r}")
            uniq = set(side)
            if len(uniq) != len(side):
                raise SimConfigError(f"partition side has duplicates: {p!r}")
            if len(uniq) >= self.slots:
                raise SimConfigError(
                    f"partition side must leave the other island nonempty "
                    f"(n={self.n}): {p!r}")
            t0, t1 = p.get("start_s"), p.get("end_s")
            if (not isinstance(t0, (int, float))
                    or not isinstance(t1, (int, float))
                    or not 0 <= t0 < t1):
                raise SimConfigError(
                    f"partition needs 0 <= start_s < end_s: {p!r}")

    def run_config(self) -> RunConfig:
        """The configuration every worker runs (``to_wire()`` is their
        ``run``), and the one ``--compare-sim`` simulates."""
        return live_run_config(**{name: getattr(self, name) for name in (
            "protocol", "n", "dmax", "sharing", "quantum", "seed",
            "ack_timeout", "wave_retry", "probe_retry", "ack_max_backoff",
            "breaker_threshold")})


class Registry:
    """Membership ledger: who exists, where, and under whom.

    The supervisor is the single writer; workers only ever see snapshots
    (the ``go`` frame) and incremental announcements (``join``/``dead``/
    ``left``), which is what makes the grafted overlay consistent
    fleet-wide: every member applies the same ordered join sequence.
    """

    def __init__(self, cfg: LiveConfig) -> None:
        self.cfg = cfg
        self.endpoints: dict[int, dict] = {}   # pid -> data-plane endpoint
        self.graft_parent: dict[int, int] = {}
        self.grafts: list[tuple[int, int]] = []   # ordered join history
        self.dead: set[int] = set()
        self.left: set[int] = set()

    def register(self, pid: int, endpoint: Optional[dict]) -> None:
        """Record one worker's hello; duplicate registrations are refused
        (the runtime drops the impostor connection instead of raising)."""
        if pid in self.endpoints:
            raise LiveRuntimeError(f"duplicate hello from pid {pid}")
        if endpoint is None:
            raise LiveRuntimeError(
                f"worker {pid} sent no data-plane endpoint")
        self.endpoints[pid] = endpoint

    def assign_parent(self, pid: int) -> int:
        """The static overlay position of joiner ``pid``.

        Deterministic per (protocol, seed, pid) and always ``< pid``, so
        the extended parent vector stays a valid parent-before-child
        encoding on every member: TD trees keep packing by the degree
        bound, random trees keep drawing uniform earlier nodes — the same
        rule that built the base overlay.  Liveness is irrelevant: a
        joiner whose static parent died ATTACHes to the nearest live
        ancestor, exactly like a post-crash splice.
        """
        if self.cfg.protocol.endswith("TD"):
            return (pid - 1) // max(1, self.cfg.dmax)
        return RngStream(self.cfg.seed, "join-parent", pid).randrange(pid)

    def add_join(self, pid: int, parent: int) -> None:
        self.graft_parent[pid] = parent
        self.grafts.append((pid, parent))

    def mark_dead(self, pid: int) -> None:
        self.dead.add(pid)

    def mark_left(self, pid: int) -> None:
        self.left.add(pid)

    def peers(self) -> dict[int, dict]:
        """Current members' data-plane endpoints (the ``go`` peers map)."""
        return {pid: ep for pid, ep in self.endpoints.items()
                if pid not in self.dead and pid not in self.left}


@dataclass(slots=True)
class LiveResult:
    """Everything a live run produced."""

    result: ExperimentResult        # same shape the simulator returns
    stats: RunStats                 # per-process counters (wall seconds)
    metrics: MetricsRegistry        # merged across workers
    conserved: Optional[int]        # fault mode: the four-place identity
    killed: tuple[int, ...]         # pids actually SIGKILLed
    #: artefacts dir.  When it was a default tempdir and the run completed
    #: cleanly without tracing, the dir is removed before return (nothing
    #: in the result points into it); the path is kept for reference.
    run_dir: str
    trace_path: Optional[str]
    reports: dict                   # pid -> final worker report
    spools: dict                    # pid -> last spool of each dead worker
    wall_s: float                   # supervisor wall time, spawn to reap
    joined: tuple[int, ...] = ()    # pids that joined mid-run
    left: tuple[int, ...] = ()      # pids that left gracefully
    #: per-link traffic: (src, dst) -> (frames, stated payload bytes),
    #: as each worker's mesh counted it
    links: dict = field(default_factory=dict)


class _Worker(Member):
    """A fleet member plus its place in this run's fault schedule."""

    __slots__ = ("done", "dead", "closed", "kill_at", "kill_units",
                 "killed_at", "joiner", "announced", "left", "leave_at",
                 "leave_sent")

    def __init__(self, pid: int, popen: subprocess.Popen) -> None:
        super().__init__(pid, popen)
        self.done = False
        self.dead = False          # died mid-run (crash semantics)
        self.closed = False        # orderly post-shutdown close
        self.kill_at: Optional[float] = None
        self.kill_units: Optional[int] = None
        self.killed_at: Optional[float] = None
        self.joiner = False        # spawned mid-run (elastic membership)
        self.announced = False     # fleet has heard of this joiner
        self.left = False          # departed gracefully (still a survivor)
        self.leave_at: Optional[float] = None
        self.leave_sent = False


def _worker_doc(cfg: LiveConfig, pid: int, endpoint: dict, run_dir: str,
                join_parent: Optional[int] = None) -> dict:
    doc = {
        "pid": pid, "endpoint": endpoint,
        "run": cfg.run_config().to_wire(), "app": cfg.app,
        "fault_mode": cfg.fault_tolerance, "run_dir": run_dir,
        "trace": cfg.trace, "timeout_s": cfg.timeout_s,
        "slots": cfg.slots, "transport": cfg.transport, "host": cfg.host,
        "peer_port": cfg.peer_port_base + pid if cfg.peer_port_base else 0,
    }
    if join_parent is not None:
        doc["join"] = {"parent": join_parent}
    return doc


def _spawn_one(cfg: LiveConfig, pid: int, endpoint: dict, run_dir: str,
               join_parent: Optional[int] = None) -> _Worker:
    w = _Worker(pid, spawn_worker(
        "repro.runtime.worker",
        _worker_doc(cfg, pid, endpoint, run_dir, join_parent),
        os.path.join(run_dir, f"worker_{pid}.log")))
    w.joiner = join_parent is not None
    for k in cfg.kills:
        if k["pid"] == pid:
            w.kill_at = k.get("after_s")
            w.kill_units = k.get("after_units")
    for lv in cfg.leaves:
        if lv["pid"] == pid:
            w.leave_at = lv["after_s"]
    return w


def _spawn(cfg: LiveConfig, endpoint: dict, run_dir: str) -> list[_Worker]:
    return [_spawn_one(cfg, pid, endpoint, run_dir)
            for pid in range(cfg.n)]


def run_live(cfg: LiveConfig) -> LiveResult:
    """Execute one live run to completion (see module docstring)."""
    t_start = time.monotonic()
    run_dir = cfg.run_dir or tempfile.mkdtemp(prefix="repro-live-")
    os.makedirs(run_dir, exist_ok=True)
    run = _LiveRun(cfg, run_dir)
    restore: list[tuple] = []
    try:
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                restore.append((signum, signal.signal(
                    signum, lambda s, _frame: run.interrupted.append(s))))
        run.fleet.members = _spawn(cfg, run.fleet.endpoint, run_dir)
        run.loop()
    except LiveAborted:
        run.fleet.broadcast({"t": "shutdown", "abort": True})
        raise
    finally:
        run.fleet.close()   # flushes, reaps, releases every socket
        for signum, handler in restore:
            signal.signal(signum, handler)
    out = run.result(time.monotonic() - t_start)
    if cfg.run_dir is None and not cfg.trace:
        # the default tempdir's artefacts (logs, spools) are all absorbed
        # into the result by now; on a clean run nothing points back into
        # it, so it is removed instead of leaking one dir per run.  Any
        # failure raises before this line — the logs survive for
        # debugging — and an explicit cfg.run_dir is the user's to keep.
        # Traced runs keep theirs too: result.trace_path lives inside.
        shutil.rmtree(run_dir, ignore_errors=True)
    return out


class _LiveRun:
    """The state of one :func:`run_live` call: what is specific to a
    one-shot run on top of its :class:`~repro.runtime.fleet.Fleet` — the
    membership registry, the kill/join/leave/partition schedule, failure
    detection and the collected reports."""

    def __init__(self, cfg: LiveConfig, run_dir: str) -> None:
        self.cfg = cfg
        self.run_dir = run_dir
        self.fleet = Fleet(run_dir, cfg.transport, cfg.host, cfg.port)
        self.fleet.on_hello = self.on_hello
        self.fleet.on_frame = self.on_frame
        self.fleet.on_eof = self.gone
        self.registry = Registry(cfg)
        self.interrupted: list[int] = []   # signals received
        self.reports: dict[int, dict] = {}
        self.hellos = 0
        self.t_spawn = time.monotonic()   # the workers start right after
        self.t_go: Optional[float] = None
        self.t_go_epoch: Optional[float] = None
        self.shutdown_sent = 0.0   # when (monotonic); 0 = not yet
        # elastic membership schedule: one join in flight at a time so the
        # announced graft sequence is totally ordered
        self.join_queue = sorted(cfg.joins, key=lambda j: j["after_s"])
        self.join_pending: Optional[int] = None   # spawned, no hello yet

    def elapsed(self) -> float:
        """Wall seconds since ``go``."""
        return time.monotonic() - self.t_go

    # -- fleet hooks ---------------------------------------------------------

    def go_frame(self, elapsed: float = 0.0) -> dict:
        """The start frame: membership snapshot + shifted fault schedule.

        A mid-run joiner's partition windows are expressed relative to
        *its* go instant, so the fleet-wide wall windows line up."""
        cfg, registry = self.cfg, self.registry
        return {
            "t": "go",
            "peers": {str(p): ep for p, ep in registry.peers().items()},
            "grafts": [[a, b] for a, b in registry.grafts],
            "dead": sorted(registry.dead),
            "left": sorted(registry.left),
            "partitions": [[sorted(p["side"]), p["start_s"] - elapsed,
                            p["end_s"] - elapsed]
                           for p in cfg.partitions],
        }

    def on_hello(self, w: _Worker) -> None:
        self.registry.register(w.pid, w.peer)
        if not w.joiner:
            self.hellos += 1
            return
        # a joiner checked in: announce it to the fleet *before* its own
        # go — members buffer any data-plane frames from a pid they have
        # not been introduced to, so either order is safe, but this one
        # minimises buffering
        w.announced = True
        self.fleet.broadcast(
            {"t": "join", "pid": w.pid, "endpoint": w.peer,
             "parent": self.registry.graft_parent[w.pid]}, skip=w.pid)
        w.conn.send_frame(self.go_frame(self.elapsed()))
        self.join_pending = None

    def on_frame(self, w: _Worker, frame: dict) -> None:
        t = frame.get("t")
        if t == "done":
            w.done = True
            self.reports[w.pid] = frame
        elif t == "left":
            w.left = True
            w.done = True   # a leaver is finished for shutdown purposes
            self.reports[w.pid] = frame
            self.registry.mark_left(w.pid)
            self.fleet.broadcast({"t": "left", "pid": w.pid}, skip=w.pid)
        elif t == "bye":
            rep = self.reports.setdefault(w.pid, {})
            for fld in ("recv_log", "crash_dropped"):
                if fld in frame:
                    rep[fld] = frame[fld]

    def gone(self, w: _Worker) -> None:
        """``w``'s connection hit EOF or its process exited: an orderly
        close if it had left or was told to shut down, else a death."""
        if w.dead or w.closed:
            return
        self.fleet.drop(w)
        if w.left or (self.shutdown_sent and w.done):
            w.closed = True
            return
        w.dead = True
        if self.join_pending == w.pid:
            self.join_pending = None   # died pre-hello: unblock the queue
        self.registry.mark_dead(w.pid)
        if w.killed_at is None and not self.cfg.fault_tolerance:
            # the connection drops before the process is gone: let it
            # finish its traceback, so that the error can say what it was
            try:
                code: Optional[int] = w.popen.wait(timeout=GRACE_S)
            except subprocess.TimeoutExpired:
                code = None
            log = os.path.join(self.run_dir, f"worker_{w.pid}.log")
            last = (log_tail(log).strip().splitlines() or ["(empty log)"])
            raise LiveRuntimeError(
                f"worker {w.pid} died unexpectedly (exit {code}): "
                f"{last[-1]}; see {log}")
        if not w.joiner or w.announced:
            self.fleet.broadcast({"t": "dead", "pid": w.pid})
        # a joiner that died before its hello was never announced:
        # nobody grafted it, so nobody needs the news

    # -- the run -------------------------------------------------------------

    def inject(self) -> None:
        """Planned faults and membership changes that have come due."""
        cfg, fleet, now = self.cfg, self.fleet, self.elapsed()
        for w in fleet.members:
            # kills land only before the victim reports done
            if (w.killed_at is not None or w.dead or w.done
                    or (w.kill_at is None and w.kill_units is None)):
                continue
            due = w.kill_at is not None and now >= w.kill_at
            if not due and w.kill_units is not None:
                doc = read_spool(spool_path(self.run_dir, w.pid))
                due = doc is not None and doc["processed"] >= w.kill_units
            if due:
                w.killed_at = now
                w.popen.kill()
        # one join at a time: the graft sequence must be totally ordered
        if (self.join_queue and self.join_pending is None
                and not self.shutdown_sent
                and now >= self.join_queue[0]["after_s"]):
            jpid = self.join_queue.pop(0)["pid"]
            parent = self.registry.assign_parent(jpid)
            self.registry.add_join(jpid, parent)
            fleet.members.append(_spawn_one(
                cfg, jpid, fleet.endpoint, self.run_dir, join_parent=parent))
            self.join_pending = jpid
        for w in fleet.members:
            if (w.leave_at is not None and not w.leave_sent and not w.dead
                    and not w.done and w.conn is not None
                    and now >= w.leave_at):
                w.leave_sent = True
                w.conn.send_frame({"t": "leave"})

    def collect_exited(self) -> None:
        for w in self.fleet.members:
            if not w.dead and not w.closed and w.popen.poll() is not None:
                if w.conn is not None:
                    self.fleet.drain(w)   # what it flushed before exiting
                self.gone(w)

    def loop(self) -> None:
        """Handshake, run, collect: returns once every surviving worker
        has reported, been told to shut down, and exited."""
        cfg, fleet = self.cfg, self.fleet
        deadline = time.monotonic() + cfg.timeout_s
        while True:
            if self.interrupted:
                raise LiveAborted(signal.Signals(self.interrupted[0]).name)
            if time.monotonic() > deadline:
                raise LiveRuntimeError(
                    f"live run exceeded timeout_s={cfg.timeout_s}; "
                    f"worker logs in {self.run_dir}")
            fleet.pump(_TICK_S)

            if self.t_go is None and self.hellos == cfg.n:
                self.t_go = time.monotonic()
                self.t_go_epoch = time.time()
                deadline = self.t_go + cfg.timeout_s
                fleet.broadcast(self.go_frame())
            if self.t_go is not None:
                self.inject()

            self.collect_exited()

            alive = [w for w in fleet.members if not w.dead]
            if not alive:
                raise LiveRuntimeError(
                    f"all {cfg.n} workers died; logs in {self.run_dir}")
            if (not self.shutdown_sent and self.t_go is not None
                    and self.join_pending is None
                    and all(w.done for w in alive)):
                self.shutdown_sent = time.monotonic()
                fleet.broadcast({"t": "shutdown"})
            if self.shutdown_sent and all(w.closed for w in alive):
                # Every survivor has hung up and is finalising its
                # interpreter (tens of ms) with nothing left to wake the
                # selector: watch the processes instead of sleeping a blind
                # tick. (Popen.wait backs off to 50 ms naps of its own.)
                while (any(w.popen.poll() is None for w in alive)
                       and not self.interrupted
                       and time.monotonic() < deadline):
                    time.sleep(_REAP_POLL_S)
            if self.shutdown_sent and all(w.popen.poll() is not None
                                          for w in alive):
                self.collect_exited()   # final frames still buffered
                return

    def result(self, wall_s: float) -> LiveResult:
        cfg, run_dir, reports = self.cfg, self.run_dir, self.reports
        workers = self.fleet.members
        for w in workers:
            code = w.popen.returncode
            if w.killed_at is None and code != 0:
                raise LiveRuntimeError(
                    f"worker {w.pid} exited with {code}; "
                    f"see {run_dir}/worker_{w.pid}.log")
            if not w.dead and w.pid not in reports:
                raise LiveRuntimeError(
                    f"worker {w.pid} never reported done")
        t_go_epoch = (self.t_go_epoch if self.t_go_epoch is not None
                      else time.time())
        spools = {}
        for w in workers:
            if w.dead:
                doc = read_spool(spool_path(run_dir, w.pid))
                if doc is not None:
                    spools[w.pid] = doc
        result, stats, metrics, links = assemble(
            cfg.protocol, cfg.n, cfg.slots, reports, t_go=t_go_epoch,
            crashed={w.pid: w.killed_at for w in workers if w.dead},
            spools=spools, wall_s=wall_s)
        metrics.gauge("live.handshake_s").set(self.t_go - self.t_spawn)
        metrics.gauge("live.reap_s").set(time.monotonic() - self.shutdown_sent)
        conserved = None
        if cfg.fault_tolerance:
            app = AppSpec.from_wire(cfg.app).build()
            conserved = conserved_units_live(app, reports, spools)
        return LiveResult(
            result=result, stats=stats, metrics=metrics,
            conserved=conserved, run_dir=run_dir, reports=reports,
            spools=spools, wall_s=wall_s, links=links,
            killed=tuple(sorted(w.pid for w in workers
                                if w.killed_at is not None)),
            trace_path=_merge_traces(cfg, run_dir, workers, t_go_epoch),
            joined=tuple(sorted(w.pid for w in workers if w.joiner)),
            left=tuple(sorted(w.pid for w in workers if w.left)))


# -- trace merge -------------------------------------------------------------

def _read_shard_samples(path: str) -> tuple[dict, list]:
    """Leniently read one worker's trace shard.

    A killed worker's shard has no footer (the writer died mid-run);
    that is expected, so this reader takes every well-formed sample line
    and ignores a torn tail instead of refusing the file.
    """
    meta: dict = {}
    samples: list = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except ValueError:
                    break   # torn tail of a SIGKILLed writer
                if rec.get("record") == "header":
                    meta = rec.get("meta", {})
                elif rec.get("record") == "sample":
                    samples.append((rec["t"], rec["pid"], rec["kind"],
                                    rec["v"]))
    except OSError:
        pass
    return meta, samples


def _merge_traces(cfg: LiveConfig, run_dir: str, workers: list[_Worker],
                  t_go_epoch: float) -> Optional[str]:
    if not cfg.trace:
        return None
    t0s: dict[int, float] = {}
    shards: dict[int, list] = {}
    for w in workers:
        meta, samples = _read_shard_samples(
            os.path.join(run_dir, f"trace_{w.pid}.ndjson"))
        shards[w.pid] = samples
        t0s[w.pid] = float(meta.get("t0_epoch", t_go_epoch))
    base = min(t0s.values(), default=t_go_epoch)
    merged = []
    for pid, samples in shards.items():
        off = t0s[pid] - base
        merged.extend((t + off, pid, kind, v) for t, _p, kind, v in samples)
    for w in workers:
        if w.killed_at is not None:
            merged.append((w.killed_at + (t_go_epoch - base), w.pid,
                           CRASH, 0.0))
    for i, p in enumerate(cfg.partitions):
        # same encoding as the simulator: +(i+1) at the cut, -(i+1) at
        # the heal, stamped on pid 0's timeline
        off = t_go_epoch - base
        merged.append((p["start_s"] + off, 0, PARTITION, float(i + 1)))
        merged.append((p["end_s"] + off, 0, PARTITION, float(-(i + 1))))
    merged.sort(key=lambda s: (s[0], s[1]))
    out = os.path.join(run_dir, "trace.ndjson")
    with TraceWriter(out, meta={"live": True, "protocol": cfg.protocol,
                                "n": cfg.n, "seed": cfg.seed,
                                "app": cfg.app,
                                "merged_shards": len(workers),
                                "killed": sorted(
                                    w.pid for w in workers
                                    if w.killed_at is not None)}) as tw:
        for t, pid, kind, v in merged:
            tw.record(t, pid, kind, v)
    return out


__all__ = ["LiveAborted", "LiveConfig", "LiveResult", "LiveRuntimeError",
           "Registry", "run_live"]
