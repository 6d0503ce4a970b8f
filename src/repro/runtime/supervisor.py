"""Live-run supervisor: one job on a freshly booted fleet.

One supervisor process per live run.  Underneath it is a
:class:`~repro.runtime.fleet.Fleet` — listener, ``hello`` identification,
one control connection per worker, the boot and the job loop, reaping —
the same coordinator a serve lane drives: the fleet boots n workers (every
``hello`` in, then one ``go``), runs one ``job`` of epoch 1 to its end and
is shut down.  The supervisor is control plane only: protocol traffic
flows over direct worker<->worker connections (:mod:`repro.runtime.mesh`)
and never through this process.  What this module adds is what is
specific to a one-shot run:

* **membership** — the :class:`Registry` records each worker's data-plane
  endpoint and the graft history; a mid-run joiner's ``go`` is its
  snapshot.
* **fault schedule** — a planned kill delivers a real ``SIGKILL`` to the
  victim's OS process, after a wall delay or once the victim's spool
  shows it has processed a minimum number of units (deterministic enough
  for CI); planned partitions ride ``go`` as windows each worker's mesh
  applies sender-side; mid-run **joins** (spawn a worker, assign its
  overlay position, announce it) and graceful **leaves** (order a worker
  out; it drains its pool to its parent and reports ``left``) keep
  membership elastic.
* **failure handling** — in fault mode the fleet announces a death
  (``dead``) and the workers' repair machinery splices the overlay around
  the corpse; otherwise a death fails the run.  Either way a failed job
  (a worker's ``job_error``, a death, the deadline) is raised as
  :class:`LiveRuntimeError`, naming the worker's own error or its exit
  code and last log line.
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
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..experiments.runner import ExperimentResult, RunConfig
from ..experiments.specs import AppSpec
from ..obs.export import TraceWriter
from ..obs.registry import MetricsRegistry
from ..sim.errors import SimConfigError
from ..sim.rng import RngStream
from ..sim.stats import RunStats
from ..sim.trace import CRASH, PARTITION
from .env import LIVE_QUANTUM, LIVE_SLICE_UNITS
from .fleet import (EXIT_POLL_S, TICK_S, Fleet, LiveRuntimeError, Worker,
                    assemble, live_run_config, spawn_worker)
from .spool import conserved_units_live, read_spool, spool_path
from .worker import preload

#: Protocols whose overlay supports elastic membership (grafted leaves).
_TREE_PROTOCOLS = ("TD", "TR", "BTD", "BTR")


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
        kill_pids: set[int] = set()
        for k in self.kills:
            pid = k.get("pid")
            if not isinstance(pid, int) or not (0 < pid < self.n):
                raise SimConfigError(
                    f"kill target must be a non-root pid < n, got {k!r}")
            if pid in kill_pids:
                raise SimConfigError(f"duplicate kill for pid {pid}")
            kill_pids.add(pid)
            if ("after_s" in k) == ("after_units" in k):
                raise SimConfigError(
                    f"kill needs exactly one of after_s/after_units: {k!r}")
            if "after_s" in k:
                t = k["after_s"]
                if not isinstance(t, (int, float)) or t < 0:
                    raise SimConfigError(f"kill needs after_s >= 0: {k!r}")
            elif type(k["after_units"]) is not int or k["after_units"] < 0:
                raise SimConfigError(
                    f"kill needs an integer after_units >= 0: {k!r}")
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
        last = 0.0
        for j in sorted(self.joins, key=lambda j: j["pid"]):
            t = j.get("after_s")
            if not isinstance(t, (int, float)) or t < 0:
                raise SimConfigError(f"join needs after_s >= 0: {j!r}")
            # a joiner's pid is its slot in the fleet, filled in order
            if t < last:
                raise SimConfigError(
                    f"join times must not decrease in pid order: pid "
                    f"{j['pid']} joins at {t} s, before pid {j['pid'] - 1}")
            last = t
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
        ``run``)."""
        return live_run_config(**{name: getattr(self, name) for name in (
            "protocol", "n", "dmax", "sharing", "quantum", "seed",
            "ack_timeout", "wave_retry", "probe_retry", "ack_max_backoff",
            "breaker_threshold")})

    def sim_config(self) -> RunConfig:
        """The run's simulated twin (``--compare-sim``): the simulator has
        no wall clock to size a slice by, so its fixed quantum is the
        live first slice, ``min(quantum, LIVE_SLICE_UNITS)``, not the
        ceiling."""
        return replace(self.run_config(),
                       quantum=min(self.quantum, LIVE_SLICE_UNITS))


class Registry:
    """Membership ledger: who exists, where, and under whom.

    The supervisor is the single writer; workers only ever see snapshots
    (a joiner's ``go`` frame) and incremental announcements (``join``/
    ``dead``/``left``), which is what makes the grafted overlay consistent
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
    spools: dict                    # pid -> last spool of each dead or
                                    # killed worker
    wall_s: float                   # supervisor wall time, spawn to reap
    joined: tuple[int, ...] = ()    # pids that joined mid-run
    left: tuple[int, ...] = ()      # pids that left gracefully
    #: per-link traffic: (src, dst) -> (frames, stated payload bytes),
    #: as each worker's mesh counted it
    links: dict = field(default_factory=dict)


def _worker_doc(cfg: LiveConfig, pid: int, endpoint: dict, run_dir: str,
                join_parent: Optional[int] = None) -> dict:
    doc = {
        "pid": pid, "endpoint": endpoint,
        "fault_mode": cfg.fault_tolerance, "run_dir": run_dir,
        "trace": cfg.trace, "timeout_s": cfg.timeout_s,
        "slots": cfg.slots, "transport": cfg.transport, "host": cfg.host,
        "peer_port": cfg.peer_port_base + pid if cfg.peer_port_base else 0,
    }
    if join_parent is not None:
        doc["join"] = {"parent": join_parent}
    for k in cfg.kills:
        if k["pid"] == pid and "after_units" in k:
            # the victim commits its spool past the threshold, says so,
            # and is killed
            doc["kill_units"] = k["after_units"]
    return doc


def _spawn_one(cfg: LiveConfig, pid: int, endpoint: dict, run_dir: str,
               join_parent: Optional[int] = None) -> Worker:
    log = os.path.join(run_dir, f"worker_{pid}.log")
    return Worker(pid, spawn_worker(
        _worker_doc(cfg, pid, endpoint, run_dir, join_parent), log), log)


def _spawn(cfg: LiveConfig, endpoint: dict, run_dir: str) -> list[Worker]:
    return [_spawn_one(cfg, pid, endpoint, run_dir)
            for pid in range(cfg.n)]


def run_live(cfg: LiveConfig) -> LiveResult:
    """Execute one live run to completion (see module docstring)."""
    t_start = time.monotonic()
    run_dir = cfg.run_dir or tempfile.mkdtemp(prefix="repro-live-")
    os.makedirs(run_dir, exist_ok=True)
    preload(cfg.app.get("kind"), cfg.protocol)   # the workers are forks
    run = _LiveRun(cfg, run_dir)
    restore: list[tuple] = []
    try:
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                restore.append((signum, signal.signal(
                    signum, lambda s, _frame: run.interrupted.append(s))))
        run.run()
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
    membership registry, the kill/join/leave/partition schedule, the reap
    and the result."""

    def __init__(self, cfg: LiveConfig, run_dir: str) -> None:
        self.cfg = cfg
        self.run_dir = run_dir
        self.fleet = Fleet(run_dir, cfg.transport, cfg.host, cfg.port)
        self.fleet.on_hello = self.on_hello   # until fleet.close()
        self.fleet.on_frame = self.on_frame
        self.fleet.on_dead = self.on_dead
        self.registry = Registry(cfg)
        self.interrupted: list[int] = []   # signals received
        self.t_spawn = time.monotonic()   # the workers start right after
        self.t_go = self.t_go_epoch = 0.0
        self.t_shutdown = 0.0
        self.kills = {k["pid"]: k for k in cfg.kills}
        self.killed: dict[int, float] = {}   # pid -> seconds after go
        self.leaves = {lv["pid"]: lv["after_s"] for lv in cfg.leaves}
        # elastic membership schedule: one join in flight at a time so the
        # announced graft sequence is totally ordered
        # (pid order is time order: LiveConfig checks it)
        self.join_queue = sorted(cfg.joins, key=lambda j: j["pid"])

    def elapsed(self) -> float:
        """Wall seconds since ``go``."""
        return time.monotonic() - self.t_go

    def partitions(self, elapsed: float) -> list:
        """The partition windows, relative to a ``go`` sent ``elapsed``
        seconds after the fleet's: a mid-run joiner's line up with the
        fleet-wide wall windows."""
        return [[sorted(p["side"]), p["start_s"] - elapsed,
                 p["end_s"] - elapsed] for p in self.cfg.partitions]

    def run(self) -> None:
        """Boot, the one job, reap: returns once every surviving worker
        has reported, been told to shut down, and exited."""
        cfg, fleet = self.cfg, self.fleet
        fleet.boot(_spawn(cfg, fleet.endpoint, self.run_dir), cfg.timeout_s,
                   partitions=self.partitions(0.0))
        self.t_go, self.t_go_epoch = time.monotonic(), time.time()
        failure = fleet.run_job(
            {"t": "job", "id": "live", "epoch": 1, "app": cfg.app,
             "run": cfg.run_config().to_wire(), "timeout_s": cfg.timeout_s},
            self.turn, repair=cfg.fault_tolerance)
        if failure is not None:
            raise LiveRuntimeError(failure[0])
        self.reap()

    # -- fleet hooks ---------------------------------------------------------

    def on_hello(self, w: Worker) -> None:
        self.registry.register(w.pid, w.peer)
        if w.pid < self.cfg.n:
            return
        # a joiner checked in: announce it to the fleet *before* its own
        # go — members buffer any data-plane frames from a pid they have
        # not been introduced to, so either order is safe, but this one
        # minimises buffering
        registry = self.registry
        self.fleet.broadcast(
            {"t": "join", "pid": w.pid, "endpoint": w.peer,
             "parent": registry.graft_parent[w.pid]}, skip=w.pid)
        w.conn.send_frame({
            "t": "go",
            "peers": {str(p): ep for p, ep in registry.peers().items()},
            "grafts": [[a, b] for a, b in registry.grafts],
            "dead": sorted(registry.dead), "left": sorted(registry.left),
            "partitions": self.partitions(self.elapsed())})
        w.conn.send_frame(self.fleet.job)
        w.state = "running"

    def on_frame(self, w: Worker, frame: dict) -> None:
        t = frame.get("t")
        if t == "left" and w.state == "left":
            self.registry.mark_left(w.pid)
        elif t == "passed" and w.state == "running":
            # its spool shows the units of its after_units kill
            self.kill(w)

    def kill(self, w: Worker) -> None:
        """SIGKILL a planned victim (once)."""
        if w.pid not in self.killed:
            self.killed[w.pid] = self.elapsed()
            w.popen.kill()

    def on_dead(self, w: Worker) -> None:
        self.registry.mark_dead(w.pid)

    def turn(self) -> Optional[float]:
        """Planned faults and membership changes that have come due;
        returns the seconds until the next one is (None: none is
        pending), so that the job loop wakes for its own schedule."""
        if self.interrupted:
            raise LiveAborted(signal.Signals(self.interrupted[0]).name)
        cfg, fleet, now = self.cfg, self.fleet, self.elapsed()
        waits = []
        for w in fleet.members:
            k = self.kills.get(w.pid)
            # kills land only before the victim reports done; an
            # after_units one when the victim says it passed them
            if (k is not None and "after_s" in k and w.pid not in self.killed
                    and w.state == "running"):
                waits.append(k["after_s"] - now)
                if now >= k["after_s"]:
                    self.kill(w)
        # one join at a time: the graft sequence must be totally ordered
        # (a joiner still booting wakes the loop with its hello)
        if self.join_queue:
            waits.append(self.join_queue[0]["after_s"] - now)
            if (waits[-1] <= 0
                    and all(w.state != "boot" for w in fleet.members)):
                jpid = self.join_queue.pop(0)["pid"]
                parent = self.registry.assign_parent(jpid)
                self.registry.add_join(jpid, parent)
                fleet.members.append(_spawn_one(
                    cfg, jpid, fleet.endpoint, self.run_dir,
                    join_parent=parent))
        for w in fleet.members:
            at = self.leaves.get(w.pid)
            if at is not None and w.state == "running":
                waits.append(at - now)
                if now >= at:
                    del self.leaves[w.pid]
                    w.conn.send_frame({"t": "leave"})
        waits = [t for t in waits if t > 0]
        return min(waits) if waits else None

    # -- the end -------------------------------------------------------------

    def reap(self) -> None:
        """Shut the finished fleet down; returns once every survivor hung
        up (its fault-mode ``bye`` receipts read) and exited."""
        fleet = self.fleet
        survivors = [w for w in fleet.members if w.state != "dead"]
        deadline = self.t_go + self.cfg.timeout_s
        self.t_shutdown = time.monotonic()
        fleet.broadcast({"t": "shutdown"})
        while True:
            if self.interrupted:
                raise LiveAborted(signal.Signals(self.interrupted[0]).name)
            if time.monotonic() > deadline:
                raise LiveRuntimeError(
                    f"live run exceeded timeout_s={self.cfg.timeout_s}; "
                    f"worker logs in {self.run_dir}")
            if all(w.conn.closed for w in survivors):
                if all(w.poll() is not None for w in survivors):
                    return
                # Every survivor has hung up and is exiting with nothing
                # left to wake the selector: watch the processes instead
                # of sleeping a blind tick.
                time.sleep(EXIT_POLL_S)
                continue
            fleet.pump(TICK_S)
            for w in survivors:
                if not w.conn.closed and w.poll() is not None:
                    fleet.drain(w)   # what it flushed before exiting
                    fleet.drop(w)

    def result(self, wall_s: float) -> LiveResult:
        cfg, run_dir = self.cfg, self.run_dir
        workers, reports = self.fleet.members, self.fleet.reports
        for w in workers:
            if w.pid not in self.killed and w.poll() != 0:
                raise LiveRuntimeError(w.describe_exit("exited with an error"))
        dead = [w.pid for w in workers if w.state == "dead"]
        # every killed pid's spool, for the post-mortem; but a kill that
        # landed after its victim reported leaves the report as the
        # victim's account, so only the deaths before one count
        spools = {}
        for pid in sorted(set(dead) | set(self.killed)):
            doc = read_spool(spool_path(run_dir, pid))
            if doc is not None:
                spools[pid] = doc
        lost = {pid: doc for pid, doc in spools.items() if pid in dead}
        result, stats, metrics, links = assemble(
            cfg.protocol, cfg.n, cfg.slots, reports, t_go=self.t_go_epoch,
            crashed={pid: self.killed.get(pid) for pid in dead},
            spools=lost, wall_s=wall_s)
        metrics.gauge("live.handshake_s").set(self.t_go - self.t_spawn)
        metrics.gauge("live.reap_s").set(time.monotonic() - self.t_shutdown)
        conserved = None
        if cfg.fault_tolerance:
            app = AppSpec.from_wire(cfg.app).build()
            conserved = conserved_units_live(app, reports, lost)
        return LiveResult(
            result=result, stats=stats, metrics=metrics,
            conserved=conserved, run_dir=run_dir, reports=reports,
            spools=spools, wall_s=wall_s, links=links,
            killed=tuple(sorted(self.killed)),
            trace_path=_merge_traces(cfg, run_dir, len(workers),
                                     self.killed, self.t_go_epoch),
            joined=tuple(range(cfg.n, len(workers))),
            left=tuple(sorted(w.pid for w in workers if w.state == "left")))


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


def _merge_traces(cfg: LiveConfig, run_dir: str, slots: int, killed: dict,
                  t_go_epoch: float) -> Optional[str]:
    if not cfg.trace:
        return None
    t0s: dict[int, float] = {}
    shards: dict[int, list] = {}
    for pid in range(slots):
        meta, samples = _read_shard_samples(
            os.path.join(run_dir, f"trace_{pid}.ndjson"))
        shards[pid] = samples
        t0s[pid] = float(meta.get("t0_epoch", t_go_epoch))
    base = min(t0s.values(), default=t_go_epoch)
    merged = []
    for pid, samples in shards.items():
        off = t0s[pid] - base
        merged.extend((t + off, pid, kind, v) for t, _p, kind, v in samples)
    for pid, killed_at in killed.items():
        merged.append((killed_at + (t_go_epoch - base), pid, CRASH, 0.0))
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
                                "merged_shards": slots,
                                "killed": sorted(killed)}) as tw:
        for t, pid, kind, v in merged:
            tw.record(t, pid, kind, v)
    return out


__all__ = ["LiveAborted", "LiveConfig", "LiveResult", "LiveRuntimeError",
           "Registry", "run_live"]
