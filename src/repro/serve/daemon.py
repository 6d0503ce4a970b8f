"""The serve daemon: bounded queue, admission control, lanes, JSON API.

``python -m repro.serve`` starts one daemon process.  It owns:

* the **API listener** (TCP loopback or a UNIX socket) — one thread per
  client connection, newline-JSON requests in, newline-JSON responses
  out (:mod:`repro.serve.protocol`);
* the **job queue** — a bounded FIFO.  Admission control happens at
  ``submit`` time: a full queue answers ``busy`` (with depth and a
  retry hint), a draining daemon answers ``draining``; nothing is ever
  queued unboundedly, which is what keeps the daemon's latency and
  memory flat under overload (queue-based load leveling);
* the **lanes** (:class:`~repro.serve.fleet.Lane`) — warm worker fleets
  pulling jobs from the queue, at most one job in flight per lane (the
  in-flight ceiling doubles as the bulkhead count);
* the **dead-letter store** — every job that terminally failed, with
  its spec, error and traceback, capped at a configured size;
* the **lifecycle ops** — ``drain`` (stop admitting, finish everything
  accepted), ``resume``, ``restart`` (rolling lane recycle: each lane
  rebuilt between jobs, one at a time, so capacity never drops by more
  than one lane and no accepted job is lost) and ``shutdown``.

SIGTERM and SIGINT trigger drain-then-exit — the same orderly teardown
contract the one-shot supervisor honours, extended to a server: stop
admitting, let every accepted job reach ``done`` or the dead-letter
store, then reap the lanes and release the sockets.
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Optional

from ..experiments.runner import RunConfig
from ..experiments.specs import AppSpec
from ..runtime.env import LIVE_QUANTUM
from ..runtime.fleet import live_run_config
from ..runtime.worker import preload
from ..sim.errors import SimConfigError
from .fleet import Lane
from .protocol import (APP_KINDS, BadRequest, SERVE_PROTOCOLS,
                       error_response, format_address, is_json_int,
                       read_line, validate_run, validate_seconds, write_line)

#: Smoothing of the execution-time EWMA behind the queue-ETA estimate.
_EWMA_ALPHA = 0.3


@dataclass(slots=True)
class ServeConfig:
    """One daemon (defaults favour a small local service)."""

    transport: str = "tcp"          # API + lane transport
    host: str = "127.0.0.1"
    port: int = 0                   # API port; 0 = ephemeral
    socket_path: Optional[str] = None   # unix API socket (default: run_dir)
    lanes: int = 2                  # concurrent jobs = warm fleets
    n: int = 2                      # workers per lane
    protocol: str = "BTD"           # default per-job run config ...
    quantum: int = LIVE_QUANTUM
    seed: int = 0
    dmax: int = 10
    sharing: str = "proportional"
    queue_limit: int = 16           # bounded FIFO; beyond this -> busy
    max_inflight: int = 0           # concurrent jobs ceiling; 0 = lanes
    job_timeout_s: float = 60.0     # default per-job deadline
    dead_letter_limit: int = 200
    run_dir: Optional[str] = None   # artifacts dir (default: a tempdir)
    boot_timeout_s: float = 60.0    # lane fleet handshake ceiling

    def __post_init__(self) -> None:
        if self.protocol not in SERVE_PROTOCOLS:
            raise SimConfigError(
                f"protocol {self.protocol!r} not servable "
                f"(live-validated: {', '.join(SERVE_PROTOCOLS)})")
        if self.transport not in ("tcp", "unix"):
            raise SimConfigError(f"unknown transport {self.transport!r}")
        self.run_config()               # the lanes' default run
        if self.lanes < 1:
            raise SimConfigError("need at least one lane")
        if self.n < 2:
            raise SimConfigError("a lane needs at least 2 workers")
        if self.queue_limit < 1:
            raise SimConfigError("queue_limit must be >= 1")
        if not self.max_inflight:
            self.max_inflight = self.lanes
        if not (1 <= self.max_inflight <= self.lanes):
            raise SimConfigError("max_inflight must be in [1, lanes]")
        if self.job_timeout_s <= 0:
            raise SimConfigError("job_timeout_s must be positive")

    def run_config(self) -> RunConfig:
        """The run a job gets before its overrides: ``n`` is the lane's."""
        return live_run_config(protocol=self.protocol, n=self.n,
                               quantum=self.quantum, seed=self.seed,
                               dmax=self.dmax, sharing=self.sharing)


class UnknownJob(LookupError):
    """A well-formed ``job_id`` that names no job (``unknown-job``)."""


@dataclass(slots=True, eq=False)
class Job:
    """One accepted submission, through its whole lifecycle."""

    id: str
    app: dict
    run: dict                        # the submitted overrides, as sent
    config: RunConfig                # what the hosts run
    timeout_s: float
    state: str = "queued"            # queued|running|done|dead
    t_submit: float = field(default_factory=time.time)
    t_start: Optional[float] = None
    t_done: Optional[float] = None
    lane: Optional[int] = None
    epoch: Optional[int] = None
    outcome: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


class ServeDaemon:
    """The long-lived service (see module docstring)."""

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self._run_config = cfg.run_config()
        self.run_dir: Optional[str] = None
        self._cond = threading.Condition()
        self._queue: collections.deque[Job] = collections.deque()
        self._jobs: dict[str, Job] = {}
        self._dead_letters: collections.deque[dict] = collections.deque(
            maxlen=cfg.dead_letter_limit)
        self._lanes: list[Lane] = []
        self._lane_failures: list[str] = []
        self._seq = 0
        self._running = 0
        self._draining = False
        self._stopping = False
        self._accepted = 0
        self._completed = 0
        self._dead = 0
        self._rejected_busy = 0
        self._rejected_draining = 0
        self._ewma_exec_s = 1.0
        self._t0 = time.time()
        self._listener = None
        self._address: Optional[tuple] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._clients: list[threading.Thread] = []
        self._shutdown_ev = threading.Event()
        self._signals: list[int] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple:
        """Open the API listener and boot the lanes; returns the address."""
        # before any thread starts: lanes fork their hosts from this image,
        # and a fork must not inherit a module lock an importer holds
        preload(*APP_KINDS, *SERVE_PROTOCOLS)
        cfg = self.cfg
        self.run_dir = cfg.run_dir or tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(self.run_dir, exist_ok=True)
        from ..runtime.transport import open_listener
        if cfg.transport == "unix":
            path = cfg.socket_path or os.path.join(self.run_dir, "api.sock")
            self._listener, ep = open_listener("unix", path=path)
            self._address = ("unix", ep["path"])
        else:
            self._listener, ep = open_listener("tcp", host=cfg.host,
                                               port=cfg.port)
            self._address = ("tcp", ep["host"], ep["port"])
        self._listener.settimeout(0.5)
        self._lanes = [Lane(i, cfg, self.run_dir, self)
                       for i in range(cfg.lanes)]
        for lane in self._lanes:
            lane.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="serve-accept")
        self._accept_thread.start()
        return self._address

    @property
    def address(self) -> Optional[tuple]:
        return self._address

    def serve_forever(self) -> None:
        """Block until ``shutdown`` (API op or SIGTERM/SIGINT drain)."""
        while not self._shutdown_ev.is_set():
            if self._signals:
                self.drain(wait=True, timeout_s=300.0)
                break
            self._shutdown_ev.wait(0.2)
        self.stop()

    def stop(self) -> None:
        """Tear everything down (idempotent)."""
        with self._cond:
            self._stopping = True
            self._draining = True
            self._cond.notify_all()
        for lane in self._lanes:
            lane.stop()
        for lane in self._lanes:
            lane.join(timeout=30.0)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
            if self._address and self._address[0] == "unix":
                from ..runtime.transport import unlink_quietly
                unlink_quietly(self._address[1])
        self._shutdown_ev.set()

    def _on_signal(self, signum, _frame) -> None:
        self._signals.append(signum)

    # -- lane source interface ----------------------------------------------

    def _try_pop(self) -> Optional[Job]:
        if (self._queue and self._running < self.cfg.max_inflight
                and not self._stopping):
            job = self._queue.popleft()
            job.state = "running"
            self._running += 1
            return job
        return None

    def next_job(self, lane: Lane) -> Optional[Job]:
        with self._cond:
            job = self._try_pop()
            if job is None and not self._stopping:
                self._cond.wait(0.2)
                job = self._try_pop()
            return job

    def job_finished(self, job: Job, outcome: dict) -> None:
        with self._cond:
            job.state = "done"
            job.t_done = time.time()
            job.outcome = outcome
            self._running -= 1
            self._completed += 1
            exec_s = job.t_done - job.t_start
            self._ewma_exec_s = (_EWMA_ALPHA * exec_s
                                 + (1 - _EWMA_ALPHA) * self._ewma_exec_s)
            self._cond.notify_all()

    def job_dead(self, job: Job, error: str, tb: str) -> None:
        with self._cond:
            job.state = "dead"
            job.t_done = time.time()
            job.error = error
            job.traceback = tb
            self._running -= 1
            self._dead += 1
            self._dead_letters.append({
                "job_id": job.id, "app": job.app, "run": job.run,
                "lane": job.lane, "error": error, "traceback": tb,
                "t": job.t_done})
            self._cond.notify_all()

    def lane_failed(self, lane: Lane, tb: str) -> None:
        with self._cond:
            self._lane_failures.append(
                f"lane {lane.lane_id}: {tb.strip().splitlines()[-1]}")
            self._cond.notify_all()

    # -- API ops -------------------------------------------------------------

    def _eta_s(self, position: int) -> float:
        """Crude queue ETA: how many service slots must turn over before
        this position runs, times the smoothed execution time."""
        servers = max(1, sum(1 for ln in self._lanes
                             if ln.state not in ("failed", "stopped")))
        return round(self._ewma_exec_s * (1.0 + position / servers), 3)

    def op_submit(self, req: dict) -> dict:
        app = req.get("app")
        try:
            AppSpec.from_wire(app)
        except SimConfigError as exc:
            raise BadRequest(str(exc)) from None
        run = validate_run(req.get("run"))
        try:
            config = replace(self._run_config, **run)
        except SimConfigError as exc:
            raise BadRequest(str(exc)) from None
        timeout_s = validate_seconds(req, "timeout_s", self.cfg.job_timeout_s)
        if not (0 < timeout_s <= 3600):
            raise BadRequest("timeout_s out of range (0, 3600]")
        with self._cond:
            if self._draining or self._stopping:
                self._rejected_draining += 1
                return error_response("draining")
            if len(self._queue) >= self.cfg.queue_limit:
                self._rejected_busy += 1
                return error_response(
                    "busy", queue_depth=len(self._queue),
                    queue_limit=self.cfg.queue_limit,
                    retry_after_s=self._eta_s(0))
            self._seq += 1
            job = Job(f"j{self._seq:06d}", app, run, config, timeout_s)
            position = len(self._queue)
            self._queue.append(job)
            self._jobs[job.id] = job
            self._accepted += 1
            self._cond.notify_all()
            return {"ok": True, "job_id": job.id, "position": position,
                    "eta_s": self._eta_s(position)}

    def _job_of(self, req: dict) -> Job:
        """The job ``req`` names. A ``job_id`` that is not a string is a
        malformed request (``BadRequest``: ``bad-request``); a string that
        names no job is ``UnknownJob`` (``unknown-job``)."""
        job_id = req.get("job_id")
        if not isinstance(job_id, str):
            raise BadRequest(f"'job_id' must be a string, got {job_id!r}")
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"unknown job_id {job_id!r}")
        return job

    def op_status(self, req: dict) -> dict:
        with self._cond:
            job = self._job_of(req)
            out = {"ok": True, "job_id": job.id, "state": job.state}
            if job.state == "queued":
                try:
                    position = list(self._queue).index(job)
                except ValueError:     # popped between checks
                    position = 0
                out["position"] = position
                out["eta_s"] = self._eta_s(position)
            elif job.state == "running":
                out["lane"] = job.lane
                out["elapsed_s"] = round(time.time() - job.t_start, 3)
            elif job.state == "done":
                oc = job.outcome
                out.update(makespan=oc["makespan"],
                           total_units=oc["total_units"],
                           optimum=oc["optimum"], lane=job.lane,
                           queue_s=round(job.t_start - job.t_submit, 6),
                           exec_s=round(job.t_done - job.t_start, 6))
            else:   # dead
                out["error"] = job.error
                out["lane"] = job.lane
            return out

    def op_result(self, req: dict) -> dict:
        with self._cond:
            job = self._job_of(req)
            if job.state == "dead":
                return {"ok": True, "job_id": job.id, "state": "dead",
                        "error": job.error, "traceback": job.traceback}
            if job.state != "done":
                return error_response("not-done", state=job.state)
            oc = dict(job.outcome)
            oc.pop("report", None)
            return {"ok": True, "job_id": job.id, "state": "done", **oc}

    def op_report(self, req: dict) -> dict:
        with self._cond:
            job = self._job_of(req)
            if job.state != "done":
                return error_response("not-done", state=job.state)
            return {"ok": True, "job_id": job.id,
                    "report": job.outcome["report"]}

    def op_stats(self, _req: dict) -> dict:
        with self._cond:
            return {"ok": True,
                    "accepted": self._accepted,
                    "completed": self._completed,
                    "dead_lettered": self._dead,
                    "rejected_busy": self._rejected_busy,
                    "rejected_draining": self._rejected_draining,
                    "queue_depth": len(self._queue),
                    "queue_limit": self.cfg.queue_limit,
                    "running": self._running,
                    "max_inflight": self.cfg.max_inflight,
                    "draining": self._draining,
                    "ewma_exec_s": round(self._ewma_exec_s, 6),
                    "uptime_s": round(time.time() - self._t0, 3),
                    "lane_failures": list(self._lane_failures),
                    "lanes": [ln.snapshot() for ln in self._lanes]}

    def op_fleet(self, _req: dict) -> dict:
        return {"ok": True, "n": self.cfg.n,
                "lanes": [ln.snapshot() for ln in self._lanes]}

    def op_dead_letters(self, req: dict) -> dict:
        limit = req.get("limit", 50)
        if not is_json_int(limit) or limit < 0:
            raise BadRequest(f"'limit' must be an integer >= 0, "
                             f"not {limit!r}")
        with self._cond:
            records = list(self._dead_letters)[-limit:] if limit else []
        return {"ok": True, "count": len(records), "dead_letters": records}

    def drain(self, wait: bool, timeout_s: float = 300.0) -> dict:
        with self._cond:
            self._draining = True
            self._cond.notify_all()
        drained = self._wait_drained(timeout_s) if wait else False
        with self._cond:
            return {"ok": True, "draining": True, "drained": drained,
                    "queue_depth": len(self._queue),
                    "running": self._running}

    def _wait_drained(self, timeout_s: float) -> bool:
        end = time.monotonic() + timeout_s
        with self._cond:
            while self._queue or self._running:
                left = end - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(min(0.2, left))
            return True

    def op_drain(self, req: dict) -> dict:
        return self.drain(wait=bool(req.get("wait", True)),
                          timeout_s=validate_seconds(req, "timeout_s", 300.0))

    def op_resume(self, _req: dict) -> dict:
        with self._cond:
            if not self._stopping:
                self._draining = False
            return {"ok": True, "draining": self._draining}

    def op_restart(self, _req: dict) -> dict:
        """Rolling restart: recycle lanes one at a time, between jobs.

        Serialised on purpose — capacity never drops by more than one
        lane, and a lane is only rebuilt at a job boundary, so every
        accepted job still runs to completion: zero-loss by construction.
        """
        per_lane = self.cfg.job_timeout_s + self.cfg.boot_timeout_s + 30.0
        restarted, failed = [], []
        for lane in self._lanes:
            if lane.state in ("failed", "stopped"):
                failed.append(lane.lane_id)
                continue
            ev = lane.request_recycle()
            if ev.wait(timeout=per_lane) and lane.state != "failed":
                restarted.append(lane.lane_id)
            else:
                failed.append(lane.lane_id)
        return {"ok": not failed, "restarted": restarted, "failed": failed}

    def op_shutdown(self, req: dict) -> dict:
        resp = self.drain(wait=bool(req.get("wait", True)),
                          timeout_s=validate_seconds(req, "timeout_s", 300.0))
        self._shutdown_ev.set()
        return {"ok": True, "shutdown": True, "drained": resp["drained"]}

    def op_ping(self, _req: dict) -> dict:
        return {"ok": True, "pong": True,
                "address": format_address(self._address)}

    _OPS = {"ping": op_ping, "submit": op_submit, "status": op_status,
            "result": op_result, "report": op_report, "stats": op_stats,
            "fleet": op_fleet, "dead_letters": op_dead_letters,
            "drain": op_drain, "resume": op_resume, "restart": op_restart,
            "shutdown": op_shutdown}

    # -- API server ----------------------------------------------------------

    def _accept_loop(self) -> None:
        import socket as socket_mod
        while not self._shutdown_ev.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket_mod.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve_client, args=(sock,),
                                 daemon=True)
            t.start()
            self._clients = [c for c in self._clients if c.is_alive()]
            self._clients.append(t)

    def _serve_client(self, sock) -> None:
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            while True:
                try:
                    req = read_line(rfile)
                except (ValueError, BadRequest) as exc:
                    write_line(wfile, error_response("bad-request",
                                                     detail=str(exc)))
                    continue
                if req is None:
                    return
                write_line(wfile, self._dispatch(req))
                if req.get("op") == "shutdown":
                    return
        except (OSError, ValueError):
            pass   # client vanished mid-exchange
        finally:
            for f in (rfile, wfile):
                try:
                    f.close()
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:
                pass

    def _dispatch(self, req: dict) -> dict:
        handler = self._OPS.get(req.get("op"))
        if handler is None:
            return error_response("unknown-op", op=req.get("op"),
                                  known=sorted(self._OPS))
        try:
            return handler(self, req)
        except BadRequest as exc:
            return error_response("bad-request", detail=str(exc))
        except UnknownJob as exc:
            return error_response("unknown-job", detail=str(exc))
        except Exception:
            tb = traceback.format_exc()
            return error_response("internal-error",
                                  detail=tb.strip().splitlines()[-1])


# -- CLI ----------------------------------------------------------------------

def serve_main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="long-lived work-distribution service over one warm "
                    "live worker fleet (see docs/serve.md)")
    ap.add_argument("--transport", choices=("tcp", "unix"), default="tcp")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0,
                    help="API port (0 = ephemeral, printed at startup)")
    ap.add_argument("--socket", default=None, metavar="PATH",
                    help="unix API socket path (implies --transport unix)")
    ap.add_argument("--lanes", type=int, default=2,
                    help="concurrent jobs = independent warm fleets")
    ap.add_argument("--n", type=int, default=2,
                    help="workers per lane")
    ap.add_argument("--protocol", default="BTD", choices=SERVE_PROTOCOLS)
    ap.add_argument("--quantum", type=int, default=LIVE_QUANTUM)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dmax", type=int, default=10)
    ap.add_argument("--sharing", default="proportional")
    ap.add_argument("--queue-limit", type=int, default=16)
    ap.add_argument("--max-inflight", type=int, default=0,
                    help="0 = one job per lane")
    ap.add_argument("--job-timeout", type=float, default=60.0)
    ap.add_argument("--run-dir", default=None)
    args = ap.parse_args(argv)
    cfg = ServeConfig(
        transport="unix" if args.socket else args.transport,
        host=args.host, port=args.port, socket_path=args.socket,
        lanes=args.lanes, n=args.n, protocol=args.protocol,
        quantum=args.quantum, seed=args.seed, dmax=args.dmax,
        sharing=args.sharing, queue_limit=args.queue_limit,
        max_inflight=args.max_inflight, job_timeout_s=args.job_timeout,
        run_dir=args.run_dir)
    daemon = ServeDaemon(cfg)
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, daemon._on_signal)
    address = daemon.start()
    print(f"repro.serve listening on {format_address(address)} "
          f"(lanes={cfg.lanes} n={cfg.n} protocol={cfg.protocol})",
          flush=True)
    daemon.serve_forever()
    print("repro.serve drained and stopped", flush=True)
    return 0


__all__ = ["Job", "ServeConfig", "ServeDaemon", "serve_main"]
