"""Live worker process: one fork of its owner running :func:`main`.

One OS process = one protocol worker, driven by one :class:`Reactor`.
The owner (the one-shot supervisor or a serve lane) preloads what its
workers run and forks each with its process configuration - who the
process is and which paths (fault / trace / join) it switches on, not the
work (:func:`repro.runtime.fleet.spawn_worker`); ``main`` dials the owner
and hands the connected socket to the reactor, which opens its data-plane
listener, says ``hello`` (advertising it) and waits for its start frame ``go``:
the membership snapshot (peers, grafts, dead, left, partitions).  Then
it takes ``job`` after ``job``, each stamped with an **epoch** that rides
every protocol frame of the job
(:attr:`repro.runtime.env.LiveEnv.frame_tag`).  A frame from a finished
epoch is dropped on receipt, one from an epoch ahead of ours (it raced
our start frame, or a faster sibling started first) waits for its job.
A job reports ``done`` (or ``left``) and ends at ``job_end`` or
``shutdown``; one that raises while building or running is reported as
``job_error`` and the process returns to idle; ``abort`` unwinds the
current job and is acknowledged with ``aborted``.  A one-shot run is one
job (epoch 1), then ``shutdown``; a serve lane sends a stream of them.

A job is one loop (:meth:`Reactor.run_job`), one turn of which is:

1. wait on the sockets until the next timer deadline (or an idle tick;
   not at all while a compute slice is parked);
2. absorb inbound frames - protocol messages off the mesh into
   ``proc._arrive`` through the epoch filter, the owner's frames onto the
   control queue;
3. act on the control queue (``dead``/``left``/``join`` membership news,
   ``leave``, ``abort``, ``job_end``, ``shutdown``);
4. fire due timers - message handlers, retransmits, termination waves -
   then compute **at most one** slice, sized to about
   :data:`~repro.runtime.env.LIVE_SLICE_S` of wall clock
   (:meth:`repro.runtime.env.LiveEnv.run_slice`);
5. report ``done`` once the protocol has terminated;
6. :meth:`Reactor.flush` - the only place bytes leave the process.  In
   fault mode it first commits the write-ahead spool if the state that
   explains outgoing bytes changed since the last commit (a new pending
   transfer, a new receipt, a dead peer settled, a ``crash_dropped``
   piece; progress alone after :data:`IDLE_TICK_S`, or when it passes a
   planned kill's threshold), so no byte is on the wire without the state
   that explains it on disk (the commit rule, :mod:`repro.runtime.spool`).

Protocol frames flow over direct worker<->worker connections
(:mod:`repro.runtime.mesh`) that outlive jobs; the owner connection
carries control only, in both directions.

The process ignores SIGINT (the owner coordinates interactive aborts) and
treats SIGTERM or owner EOF as an orderly exit, so no run leaves orphans.
"""

from __future__ import annotations

import collections
import os
import sys
import time
import traceback
from importlib import import_module
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Optional

from ..apps.base import Application
from ..experiments.runner import RunConfig, worker_factory
from ..experiments.specs import AppSpec
from ..obs.registry import SIZE_EDGES, MetricsRegistry
from .codec import WireError, message_from_frame, stats_to_wire, to_wire
from .env import LiveEnv
from .mesh import MAX_EARLY_FRAMES, PeerMesh, open_peer_listener
from .spool import Spool, build_spool_doc, spool_path, write_spool
from .transport import FramedConnection, InterestTable, connect_endpoint

#: Selector timeout when no timer is pending (keeps the watchdog and
#: owner-EOF checks responsive); also how stale the ``processed`` count of
#: a fault-mode spool may get (the commit rule, :meth:`Reactor.flush`).
IDLE_TICK_S = 0.25

#: Ceiling on flushing a last report into a slow socket before exiting.
DRAIN_S = 5.0

#: What :func:`build_app` and :func:`~repro.experiments.runner.worker_factory`
#: import for an application kind or a baseline protocol, and nothing else.
_MODULES = {"uts": ("repro.apps.uts_app", "repro.uts.params"),
            "bnb": ("repro.apps.bnb_app", "repro.bnb.taillard",
                    "repro.bnb.neh"),
            "synthetic": ("repro.apps.synthetic",),
            "RWS": ("repro.baselines.rws",),
            "MW": ("repro.baselines.master_worker",),
            "AHMW": ("repro.baselines.ahmw",),
            "LIFELINE": ("repro.baselines.lifeline",)}


def preload(*names: str) -> None:
    """Import the applications and protocols named, in the owner, before
    it forks its workers: an import after the start frame is start-up
    billed as run time, and a fork of a threaded owner must not import at
    all.  A one-shot run preloads its job, the daemon every job."""
    for name in names:
        for module in _MODULES.get(name, ()):
            import_module(module)


def build_app(wire: dict) -> tuple[Application, str]:
    """The application a wire document describes, and its label."""
    spec = AppSpec.from_wire(wire)
    return spec.build(), spec.label


def _foreign(payload, proc) -> bool:
    """Whether a decoded payload carries a UTS piece whose generator
    parameters are not the job's: they size the receiver's expansions."""
    if isinstance(payload, tuple):
        return any(_foreign(x, proc) for x in payload)
    return (getattr(payload, "wire_tag", None) == "__uts"
            and payload.params != getattr(proc.work, "params", None))


class Exit(Exception):
    """Unwind the reactor (code carried to ``sys.exit``)."""

    def __init__(self, code: int) -> None:
        self.code = code


class Reactor(InterestTable):
    """Selector, owner connection, mesh and the job loop of one worker
    process (see module docstring).

    ``conn`` is already connected: only :func:`main` dials, so tests can
    drive reactors in-process over ``socket.socketpair()``.
    """

    def __init__(self, cfg: dict, conn: FramedConnection) -> None:
        self.cfg = cfg
        self.pid = int(cfg["pid"])
        self.conn = conn
        self.sel = DefaultSelector()
        self._interest: dict[int, int] = {}   # fd -> registered event mask
        #: control frames received but not yet acted on.  Owners send them
        #: back to back (``go`` then ``job``, ``job_end`` then the next
        #: ``job``), so consumers pop what they handle and leave the rest.
        self.ctrl: collections.deque[dict] = collections.deque()
        #: protocol frames that arrived before their job started here
        self.early: list[dict] = []
        self.epoch: Optional[int] = None   # running job's frame tag
        self.seen_epoch = -1               # newest epoch a job frame named
        self.env: Optional[LiveEnv] = None   # set while a job runs
        self.proc = None
        self.spool: Optional[Spool] = None   # fault mode: the job's spool
        #: last commit: ((channel revision, crash_dropped count), units
        #: processed, monotonic time); and the job's spool instruments
        self._commit: tuple = (None, 0, 0.0)
        self._spool_metrics: tuple = ()
        # the listener must accept before anyone can learn our address:
        # it is open ahead of the hello that advertises it
        listener, self.peer_endpoint = open_peer_listener(
            cfg.get("transport", "tcp"), cfg.get("host", "127.0.0.1"),
            int(cfg.get("peer_port", 0)), cfg.get("run_dir"), self.pid)
        self.mesh = PeerMesh(
            self.pid, listener,
            on_conn=lambda c: self.set_interest(c.sock, EVENT_READ, c),
            on_drop=lambda c: self.forget_sock(c.sock))
        self.set_interest(listener, EVENT_READ, "accept")

    # -- the turn ------------------------------------------------------------

    def pump(self, timeout: float) -> None:
        """Input half of a turn: wait, then drain every socket.  The
        mesh's frames go through :meth:`deliver`, the owner's onto
        :attr:`ctrl` - control frames all; a ``msg`` has no business there
        and is passed over like any kind nobody handles.  EVENT_WRITE only
        wakes the loop - the bytes leave in :meth:`flush`, after the
        commit."""
        conn, mesh = self.conn, self.mesh
        self.set_interest(conn.sock, EVENT_READ
                          | (EVENT_WRITE if conn.wants_write else 0), "ctrl")
        for c in mesh.open_conns():
            self.set_interest(c.sock, EVENT_READ
                              | (EVENT_WRITE if c.wants_write else 0), c)
        for key, _mask in self.sel.select(timeout=timeout):
            if key.data == "accept":
                mesh.accept()
            elif key.data != "ctrl":
                for frame in mesh.service(key.data):
                    if not self.deliver(frame):
                        break   # the rest came with the bad frame
                if key.data.eof:
                    mesh.forget(key.data)
        self.ctrl.extend(conn.receive())
        if conn.eof:
            raise Exit(1)   # owner vanished: don't linger

    def deliver(self, frame: dict) -> bool:
        """A protocol frame in: to the protocol if it belongs to the job
        running now; parked if its job has not started here yet (the
        frame raced our start frame, or a faster sibling is an epoch
        ahead); dropped if its epoch is over.  False if it was for the
        protocol but did not decode (see :meth:`to_protocol`)."""
        tag = frame.get("j")
        if self.env is not None and tag == self.epoch:
            return self.to_protocol(frame)
        if (isinstance(tag, int) and tag > self.seen_epoch
                and len(self.early) < MAX_EARLY_FRAMES):
            self.early.append(frame)
        return True

    def to_protocol(self, frame: dict) -> bool:
        """Decode a frame of the running job for the protocol.  A member
        whose payload does not decode is a hostile input like the mesh's
        others: every connection from that pid is closed and forgotten,
        the frame is dropped, the reactor runs on, and False tells the
        caller not to trust what came with it."""
        try:
            msg = message_from_frame(frame)
            if _foreign(msg.payload, self.proc):
                raise WireError("a UTS piece of another tree")
        except WireError:
            for conn in self.mesh.conns_of(frame.get("src")):
                self.mesh.forget(conn)
            return False
        self.env.deliver(msg)
        return True

    def open_spool(self, run_dir: str, metrics: MetricsRegistry) -> None:
        """Fault mode: this job keeps a spool, and publishes what it costs
        into the job's registry."""
        self.spool = Spool(spool_path(run_dir, self.pid))
        self._commit = (None, 0, 0.0)   # the first flush commits
        self._spool_metrics = (
            metrics.counter("spool.commits"),
            metrics.counter("spool.skipped"),
            metrics.histogram("spool.commit_s"),
            metrics.histogram("spool.bytes", SIZE_EDGES))

    def flush(self) -> bool:
        """Output half of a turn, and the only place bytes leave the
        process.  Write-ahead: state hits the disk before the bytes it
        explains hit the wire.  True once every buffer drained.

        The commit rule: only a send (``out_pending``), a receipt
        (``recv_log`` + the merged piece), a dead peer's settlement and a
        ``crash_dropped`` piece give bytes a meaning that depends on the
        spool, so only they force a commit.  Between them a process moves
        units from ``pool`` to ``processed``, which a stale spool counts
        the same; that is refreshed for the post-mortem once the last
        commit is :data:`IDLE_TICK_S` old.  A worker whose process
        configuration names ``kill_units`` (the threshold of a planned
        ``--kill P@Nu``) also commits at its first flush past it, and
        then tells the owner, which kills it."""
        if self.spool is not None:
            proc, now = self.proc, time.monotonic()
            ch = proc._reliable
            state = (ch.revision if ch is not None else 0,
                     len(proc.crash_dropped))
            units = proc.stats.work_units
            commits, skipped, commit_s, commit_bytes = self._spool_metrics
            state0, units0, at0 = self._commit
            passed = units0 < self.cfg.get("kill_units", -1) <= units
            if state != state0 or passed or (units != units0
                                             and now - at0 > IDLE_TICK_S):
                commit_bytes.observe(
                    write_spool(self.spool, build_spool_doc(proc)))
                self._commit = (state, units, now)
                commits.inc()
                commit_s.observe(time.monotonic() - now)
                if passed:
                    self.conn.send_frame({"t": "passed", "units": units})
            else:
                skipped.inc()
        done = self.conn.flush()
        return self.mesh.flush_all() and done

    def drain(self) -> None:
        """Flush until the buffers are empty (a last report must not die
        in ours), within :data:`DRAIN_S`."""
        until = time.monotonic() + DRAIN_S
        while not self.flush() and time.monotonic() < until:
            time.sleep(0.005)

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> int:
        """hello, ``go``, jobs; returns the process exit code."""
        try:
            self.conn.send_frame({"t": "hello", "pid": self.pid,
                                  "ospid": os.getpid(),
                                  "peer": self.peer_endpoint})
            start = self.await_frame(
                ("go",), float(self.cfg.get("timeout_s", 60.0)))
            self.mesh.partitions = tuple(
                (frozenset(int(q) for q in side), float(t0), float(t1))
                for side, t0, t1 in start.get("partitions", ()))
            for peer, ep in start.get("peers", {}).items():
                if int(peer) != self.pid:
                    for frame in self.mesh.add_member(int(peer), ep):
                        self.deliver(frame)
            self.mesh.arm()
            while True:
                job = self.await_frame(("job",))
                try:
                    self.run_job(job, start)
                except Exit:
                    raise
                except (Exception, SystemExit):
                    # a poisoned spec or an application that blows up
                    # mid-run costs the job, not the process
                    tb = traceback.format_exc()
                    print(tb, end="", file=sys.stderr)   # into our log
                    self.conn.send_frame({
                        "t": "job_error", "job": job.get("id"),
                        "epoch": job.get("epoch"),
                        "error": tb.strip().splitlines()[-1],
                        "traceback": tb})
                    self.drain()
        except Exit as ex:
            return ex.code
        finally:
            self.conn.close()
            self.mesh.close()
            self.sel.close()

    def await_frame(self, kinds: tuple,
                    timeout_s: Optional[float] = None) -> dict:
        """Idle until the owner sends a frame of one of ``kinds``.

        Other control frames stay queued, in order, for the job that
        follows (a ``dead`` announced before ``go`` must reach the
        protocol) - except ``shutdown``, which ends the process, and an
        ``abort`` that raced our own ``job_error``/``aborted`` reply,
        which is acknowledged again so the owner's barrier always closes.
        """
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        kept = 0   # ctrl[:kept] was looked at and left for the job
        while True:
            while kept < len(self.ctrl):
                frame = self.ctrl[kept]
                t = frame.get("t")
                if t in kinds:
                    del self.ctrl[kept]
                    return frame
                if t == "shutdown":
                    self.drain()
                    raise Exit(0)
                if t == "abort":
                    del self.ctrl[kept]
                    self.conn.send_frame({"t": "aborted",
                                          "epoch": frame.get("epoch")})
                else:
                    kept += 1
            if deadline is not None and time.monotonic() > deadline:
                raise Exit(3)
            self.flush()
            self.pump(IDLE_TICK_S)

    # -- one job -------------------------------------------------------------

    def run_job(self, job: dict, start: dict) -> None:
        """Build and run one job to its end: ``job_end`` or an ``abort``
        of its epoch return, ``shutdown`` and a completed leave exit the
        process.  ``job`` names the work (``app``, ``run`` - a
        :meth:`RunConfig.to_wire` document - ``timeout_s``, ``id`` and
        ``epoch``); the process configuration switches the fault / trace /
        join paths on; ``start`` is the ``go`` frame's membership snapshot
        (``grafts``, ``dead``, ``left``)."""
        cfg, pid, conn, mesh = self.cfg, self.pid, self.conn, self.mesh
        epoch = int(job["epoch"])
        self.seen_epoch = max(self.seen_epoch, epoch)
        fault_mode = bool(cfg.get("fault_mode"))
        run_dir = cfg.get("run_dir")
        # a wedged application is the owner's to time out (it aborts or
        # reaps us); doubling its limit makes this the last resort only
        deadline = time.monotonic() + 2.0 * float(job.get("timeout_s", 120.0))

        # a fork's first job reports the pages it copied (fleet._own_pages)
        copied = cfg.pop("copied", lambda: None)()
        app, app_label = build_app(job["app"])
        rcfg = RunConfig.from_wire(job["run"])
        grafts = tuple((int(a), int(b)) for a, b in start.get("grafts", ()))
        proc = worker_factory(rcfg, app, grafts=grafts)(pid)
        metrics = MetricsRegistry()
        env = LiveEnv(pid, int(cfg.get("slots", rcfg.n)), mesh,
                      seed=rcfg.seed, fault_mode=fault_mode, run_dir=run_dir,
                      metrics=metrics, debug=bool(cfg.get("debug")),
                      frame_tag=epoch)
        env.attach(proc)
        t0_epoch = time.time()
        # the mesh outlives jobs: a job's traffic is the counters' growth
        links0 = mesh.links_wire()

        def report(kind: str) -> dict:
            # a fork's first: the pages it copied (and fork.* gauges)
            rep = {"pages": copied(metrics)} if copied else {}
            rep.update({"t": kind, "pid": pid, "t0": t0_epoch,
                        "stats": stats_to_wire(env.stats.per_process[pid]),
                        "work_done": env.stats.work_done_time,
                        "optimum": (app.shared_value(proc.shared)
                                    if proc.shared is not None else None),
                        "metrics": metrics.snapshot(),
                        "links": mesh.links_wire(links0),
                        "part_drops": mesh.part_drops,
                        "job": job.get("id"), "epoch": epoch})
            if fault_mode:
                rep.update(self._receipts())
            return rep

        tracer = None
        if cfg.get("trace") and run_dir:
            from ..obs.export import TraceWriter
            tracer = proc.tracer = TraceWriter(
                os.path.join(run_dir, f"trace_{pid}.ndjson"),
                meta={"pid": pid, "t0_epoch": t0_epoch,
                      "protocol": rcfg.protocol, "n": rcfg.n,
                      "app": app_label, "live": True})
        self.env, self.proc, self.epoch = env, proc, epoch
        if fault_mode and run_dir:
            self.open_spool(run_dir, metrics)
        try:
            self.flush()   # a kill before the first quantum finds a spool
            proc.start()
            for d in start.get("dead", ()):
                env.mark_dead(int(d))
            for lv in start.get("left", ()):
                env.mark_left(int(lv))
            early, self.early = self.early, []
            for frame in early:
                if frame.get("j") == epoch:
                    self.to_protocol(frame)
            if cfg.get("join") is not None:
                # announce ourselves to the overlay parent the registry
                # assigned (ATTACH -> ADOPT; idempotent if it died since)
                proc.join_overlay()

            reported = False
            while True:
                if time.monotonic() > deadline:
                    raise Exit(4)
                if self.turn():
                    return
                if proc.terminated and not reported:
                    reported = True
                    self.flush()   # the TERMs out before a first report
                    conn.send_frame(report("done"))
                if proc.leaving and not reported and proc.leave_tick():
                    # pool drained, every transfer acked: report, depart
                    env.stats.per_process[pid].finish_time = env.now
                    conn.send_frame(report("left"))
                    self.drain()
                    raise Exit(0)
                self.flush()
        finally:
            if self.spool is not None:
                self.spool.close()
            self.env = self.proc = self.spool = self.epoch = None
            if tracer is not None:
                tracer.close()

    def turn(self) -> bool:
        """Steps 1-4 of a turn of the running job (module docstring): at
        most one compute slice, after every frame pumped and every timer
        due - handlers, acks, retransmits, waves.  The pump does not wait
        while a slice is parked.  True once a control frame ended the job."""
        env = self.env
        env.metrics.counter("reactor.turns").inc()
        nxt = env.queue.next_deadline()
        self.pump(0.0 if env.slice_parked
                  else IDLE_TICK_S if nxt is None
                  else min(IDLE_TICK_S, max(0.0, nxt - env.now)))
        if self.control():
            return True
        env.queue.fire_due()
        env.run_slice()
        return False

    def control(self) -> bool:
        """Act on the queued control frames of the running job; True if
        one ended it (``abort``, ``job_end``), ``shutdown`` exits."""
        env, proc, mesh, epoch = self.env, self.proc, self.mesh, self.epoch
        while self.ctrl:
            frame = self.ctrl.popleft()
            t = frame.get("t")
            if t in ("dead", "left"):
                gone = int(frame["pid"])
                # first whatever the departed peer flushed before going:
                # those frames physically arrived
                for late in mesh.drop_peer(gone):
                    if not self.deliver(late):
                        break
                (env.mark_left if t == "left" else env.mark_dead)(gone)
            elif t == "join":
                jp = int(frame["pid"])
                # graft first, then the joiner's early frames: its ATTACH
                # must find the overlay already extended
                proc.peer_joined(jp, int(frame["parent"]))
                for late in mesh.add_member(jp, frame.get("endpoint")):
                    if not self.deliver(late):
                        break
            elif t == "leave":
                proc.begin_leave()
            elif t == "shutdown":
                if self.cfg.get("fault_mode") and not frame.get("abort"):
                    self.conn.send_frame({"t": "bye", "pid": self.pid,
                                          **self._receipts()})
                self.drain()
                raise Exit(0)
            elif frame.get("epoch") == epoch:
                if t == "abort":
                    self.conn.send_frame({"t": "aborted", "epoch": epoch})
                    self.drain()
                    return True
                if t == "job_end":
                    return True   # a queued next job stays in ctrl
        return False

    def _receipts(self) -> dict:
        """Fault mode: the conservation inputs only a survivor can give."""
        ch = self.proc._reliable
        return {"recv_log": ({str(s): sorted(q) for s, q in ch._seen.items()}
                             if ch is not None else {}),
                "crash_dropped": [to_wire(p)
                                  for p in self.proc.crash_dropped]}


def main(cfg: dict) -> int:
    """The worker ``cfg`` configures, in a fork of its owner: dial the
    owner, run the reactor; returns the exit code."""
    conn = FramedConnection(connect_endpoint(cfg["endpoint"]))
    return Reactor(cfg, conn).run()
