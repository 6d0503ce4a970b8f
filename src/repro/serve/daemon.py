"""The serve daemon: bounded queue, admission control, lanes, JSON API.

``python -m repro.serve`` starts one daemon process.  It owns the **API
listener** (TCP loopback or a UNIX socket; newline-JSON requests in,
responses out in request order, :mod:`repro.serve.protocol`), a bounded
FIFO **job queue** (a full queue answers ``submit`` with ``busy`` and a
retry hint, a draining daemon with ``draining``: nothing queues without
bound), the **lanes** (:class:`~repro.serve.fleet.Lane`, warm worker fleets
running at most one job each: the bulkheads), a capped **dead-letter
store** of every job that terminally failed, and the **lifecycle ops**
``drain``, ``resume``, ``restart`` (a rolling lane recycle, one lane at a
time, between jobs: no accepted job is lost) and ``shutdown``.  SIGTERM
and SIGINT drain, then shut down.

All of it runs on one thread: one selector loop (:meth:`ServeDaemon._turn`)
over the listener, the client connections and every lane's fleet.  A
request that waits — ``wait``, ``drain``/``shutdown`` with ``wait``,
``restart`` — is *parked*: its handler is a generator the loop advances
once a turn until it returns the reply, and the connection's later
requests queue behind it.
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from types import GeneratorType
from typing import Optional

from ..experiments.runner import RunConfig
from ..experiments.specs import AppSpec
from ..runtime.env import LIVE_QUANTUM
from ..runtime.fleet import TICK_S, live_run_config
from ..runtime.transport import InterestTable, open_listener, unlink_quietly
from ..runtime.worker import preload
from ..sim.errors import SimConfigError
from .fleet import Lane
from .protocol import (APP_KINDS, MAX_LINE, BadRequest, SERVE_PROTOCOLS,
                       decode_line, encode_line, error_response,
                       format_address, is_json_int, validate_run,
                       validate_seconds)

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
    outcome: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


class _Client:
    """One API connection: its unread bytes, its unsent replies, whether a
    parked request holds its next ones back, whether it is hung up on."""

    __slots__ = ("sock", "inbuf", "out", "parked", "closing")

    def __init__(self, sock) -> None:
        self.sock, self.inbuf, self.out = sock, bytearray(), bytearray()
        self.parked = self.closing = False


class ServeDaemon(InterestTable):
    """The long-lived service (see module docstring)."""

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self._run_config = cfg.run_config()
        self.run_dir: Optional[str] = None
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
        self._clients: list[_Client] = []
        self._parked: list[tuple] = []   # (client, generator)
        self._thread: Optional[threading.Thread] = None
        self._shutdown_ev = threading.Event()   # the loop is to end
        self._signals: list[int] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple:
        """Open the API listener and the lanes' fleets, then start the
        loop's thread, which forks the hosts; returns the address."""
        # before the loop's thread starts: lanes fork their hosts from this
        # image, and a fork must not inherit a module lock an importer holds
        preload(*APP_KINDS, *SERVE_PROTOCOLS)
        cfg = self.cfg
        self.run_dir = cfg.run_dir or tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(self.run_dir, exist_ok=True)
        self._listener, ep = open_listener(
            cfg.transport, host=cfg.host, port=cfg.port,
            path=cfg.socket_path or os.path.join(self.run_dir, "api.sock"))
        # ("unix", path) or ("tcp", host, port)
        self._address = tuple(ep.values())
        self._listener.setblocking(False)
        self.sel, self._interest = DefaultSelector(), {}
        self.set_interest(self._listener, EVENT_READ, None)
        self._lanes = [Lane(i, cfg, self.run_dir, self)
                       for i in range(cfg.lanes)]
        for lane in self._lanes:
            self.set_interest(lane.open().sel, EVENT_READ, lane)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="serve-loop")
        self._thread.start()
        return self._address

    @property
    def address(self) -> Optional[tuple]:
        return self._address

    def serve_forever(self) -> None:
        """Block until the loop ended: ``shutdown`` (API op, or the drain
        SIGTERM/SIGINT start)."""
        while self._thread.is_alive():
            self._thread.join(0.2)   # signal handlers run in between
        self.stop()

    def stop(self) -> None:
        """End the loop, which reaps the lanes and releases the sockets
        (idempotent)."""
        self._stopping = self._draining = True
        if self._thread is not None:
            self._thread.join()

    # -- the loop ------------------------------------------------------------

    def _loop(self) -> None:
        try:
            while not (self._stopping or self._shutdown_ev.is_set()):
                self._turn()
        finally:
            self._teardown()

    def _turn(self) -> None:
        """Wait for a socket, a fleet or a lane's clock; read and answer
        requests, step the lanes, start queued jobs on idle ones, advance
        the parked requests, send the replies."""
        for c in self._clients:
            flags = ((0 if c.parked or c.closing else EVENT_READ)
                     | (EVENT_WRITE if c.out else 0))
            if flags:
                self.set_interest(c.sock, flags, c)
            else:
                self.forget_sock(c.sock)
        now = time.monotonic()
        wait = min([TICK_S, *(lane.due - now for lane in self._lanes)])
        ready = set()
        for key, mask in self.sel.select(max(0.0, wait)):
            who = key.data
            if who is None:
                self._accept()
            elif isinstance(who, Lane):
                ready.add(who)
            elif mask & EVENT_READ and who.sock is not None:
                self._read(who)
        now = time.monotonic()
        for lane in self._lanes:
            if lane in ready or lane.due <= now:
                lane.step()
        for lane in self._lanes:
            if (lane.state == "idle" and self._queue
                    and self._running < self.cfg.max_inflight):
                job = self._queue.popleft()
                job.state = "running"
                self._running += 1
                lane.run(job)
        if self._signals:   # SIGTERM/SIGINT: a shutdown nobody reads
            self._signals.clear()
            self._send(_Client(None), self._answer(self.op_shutdown,
                                                   {"timeout_s": 300.0}))
        for entry in list(self._parked):
            c, reply = entry[0], self._answer(next, entry[1])
            if reply is not None:
                self._parked.remove(entry)
                c.parked = False
                self._send(c, reply)
                self._serve(c)   # the requests queued behind it
        for c in list(self._clients):
            if c.out:
                self._flush(c)

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:   # drained (EAGAIN), or the peer already left
                return
            sock.setblocking(False)
            c = _Client(sock)
            self._clients.append(c)
            self.set_interest(sock, EVENT_READ, c)

    def _read(self, c: _Client) -> None:
        try:
            data = c.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        try:
            if not data:
                self._close(c)
                return
            c.inbuf += data
            self._serve(c)
        except Exception:   # a defect must not stop the loop: drop the client
            traceback.print_exc(file=sys.stderr)
            self._close(c)

    def _serve(self, c: _Client) -> None:
        """Answer ``c``'s complete request lines in order, until one parks;
        a line over :data:`MAX_LINE` bytes is answered, then hung up on."""
        while not (c.parked or c.closing or c.sock is None):
            end = c.inbuf.find(b"\n", 0, MAX_LINE + 1)
            if end < 0:
                if len(c.inbuf) > MAX_LINE:
                    self._send(c, error_response(
                        "bad-request",
                        detail=f"request line over {MAX_LINE} bytes"))
                    c.closing = True
                return
            line = bytes(c.inbuf[:end])
            del c.inbuf[:end + 1]
            try:
                req = decode_line(line)
            except (ValueError, BadRequest) as exc:
                self._send(c, error_response("bad-request", detail=str(exc)))
                continue
            self._send(c, self._dispatch(req))

    def _send(self, c: _Client, out) -> None:
        """Queue the reply ``out``, or park it: a generator, advanced once
        a turn until it returns the reply."""
        if isinstance(out, GeneratorType):
            self._parked.append((c, out))
            c.parked = True
        else:
            c.out += encode_line(out)

    def _flush(self, c: _Client) -> None:
        try:
            del c.out[:c.sock.send(c.out)]
        except BlockingIOError:
            return
        except OSError:   # the client vanished mid-exchange
            c.out.clear()
            c.closing = True
        if c.closing and not c.out:
            self._close(c)

    def _close(self, c: _Client) -> None:
        if c.sock is not None:
            self.forget_sock(c.sock)
            c.sock.close()
            c.sock = None
            self._clients.remove(c)

    def _teardown(self) -> None:
        for lane in self._lanes:
            lane.close()
        for c in list(self._clients):
            try:
                c.sock.setblocking(True)
                c.sock.settimeout(1.0)
                c.sock.sendall(c.out)   # a last reply (``shutdown``'s)
            except OSError:
                pass
            self._close(c)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
            if self._address and self._address[0] == "unix":
                unlink_quietly(self._address[1])
        self.sel.close()
        self._shutdown_ev.set()

    # -- lane source interface ----------------------------------------------

    def job_finished(self, job: Job, outcome: dict) -> None:
        job.state = "done"
        job.t_done = time.time()
        job.outcome = outcome
        self._running -= 1
        self._completed += 1
        exec_s = job.t_done - job.t_start
        self._ewma_exec_s = (_EWMA_ALPHA * exec_s
                             + (1 - _EWMA_ALPHA) * self._ewma_exec_s)

    def job_dead(self, job: Job, error: str, tb: str) -> None:
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

    def lane_failed(self, lane: Lane, tb: str) -> None:
        self._lane_failures.append(
            f"lane {lane.lane_id}: {tb.strip().splitlines()[-1]}")

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
        job = self._job_of(req)
        out = {"ok": True, "job_id": job.id, "state": job.state}
        if job.state == "queued":
            position = self._queue.index(job)
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
        job = self._job_of(req)
        if job.state != "done":
            return error_response("not-done", state=job.state)
        return {"ok": True, "job_id": job.id,
                "report": job.outcome["report"]}

    def op_stats(self, _req: dict) -> dict:
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
        records = list(self._dead_letters)[-limit:] if limit else []
        return {"ok": True, "count": len(records), "dead_letters": records}

    def op_drain(self, req: dict):
        """Stop admitting; with ``wait`` (the default), parked until the
        accepted jobs ended or ``timeout_s`` passed."""
        wait = bool(req.get("wait", True))
        timeout_s = validate_seconds(req, "timeout_s", 300.0)
        self._draining = True
        drained = lambda: not (self._queue or self._running)  # noqa: E731
        yield from _until(lambda: not wait or drained(), timeout_s)
        return {"ok": True, "draining": True, "drained": wait and drained(),
                "queue_depth": len(self._queue), "running": self._running}

    def op_resume(self, _req: dict) -> dict:
        if not self._stopping:
            self._draining = False
        return {"ok": True, "draining": self._draining}

    def op_restart(self, _req: dict):
        """Rolling restart: recycle lanes one at a time, between jobs.

        Serialised on purpose — capacity never drops by more than one
        lane, and a lane is only rebuilt at a job boundary, so every
        accepted job still runs to completion: zero-loss by construction.
        """
        per_lane = self.cfg.job_timeout_s + self.cfg.boot_timeout_s + 30.0
        restarted, failed = [], []
        for lane in self._lanes:
            restarts = lane.restarts
            if lane.state not in ("failed", "stopped"):
                lane.request_recycle()
                yield from _until(lambda: lane.state == "failed"
                                  or lane.restarts > restarts, per_lane)
            (restarted if lane.restarts > restarts and lane.state != "failed"
             else failed).append(lane.lane_id)
        return {"ok": not failed, "restarted": restarted, "failed": failed}

    def op_shutdown(self, req: dict):
        drained = (yield from self.op_drain(req))["drained"]
        self._shutdown_ev.set()
        return {"ok": True, "shutdown": True, "drained": drained}

    def op_wait(self, req: dict):
        """Parked until the job ends or ``timeout_s`` passes: its
        ``status`` then, terminal or not."""
        job = self._job_of(req)
        timeout_s = validate_seconds(req, "timeout_s", self.cfg.job_timeout_s)
        yield from _until(lambda: job.state in ("done", "dead"), timeout_s)
        return self.op_status(req)

    def op_ping(self, _req: dict) -> dict:
        return {"ok": True, "pong": True,
                "address": format_address(self._address)}

    _OPS = {"ping": op_ping, "submit": op_submit, "status": op_status,
            "result": op_result, "report": op_report, "stats": op_stats,
            "fleet": op_fleet, "dead_letters": op_dead_letters,
            "drain": op_drain, "resume": op_resume, "restart": op_restart,
            "shutdown": op_shutdown, "wait": op_wait}

    def _dispatch(self, req: dict):
        """``req``'s reply, or its parked handler (a generator)."""
        handler = self._OPS.get(req.get("op"))
        if handler is None:
            return error_response("unknown-op", op=req.get("op"),
                                  known=sorted(self._OPS))
        return self._answer(handler, self, req)

    @staticmethod
    def _answer(step, *args):
        """``step(*args)``, its errors as error replies.  A generator it
        returns is advanced once: its reply if it returned one, else the
        generator, parked; a parked one advanced with ``next`` gives None
        while it waits."""
        try:
            out = step(*args)
            if isinstance(out, GeneratorType):
                next(out)
            return out
        except StopIteration as done:
            return done.value
        except BadRequest as exc:
            return error_response("bad-request", detail=str(exc))
        except UnknownJob as exc:
            return error_response("unknown-job", detail=str(exc))
        except Exception:
            tb = traceback.format_exc()
            return error_response("internal-error",
                                  detail=tb.strip().splitlines()[-1])


def _until(ready, timeout_s: float):
    """Park: yield once a turn until ``ready()`` or ``timeout_s`` passed."""
    end = time.monotonic() + timeout_s
    while not ready() and time.monotonic() < end:
        yield


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
            signal.signal(signum, lambda s, _f: daemon._signals.append(s))
    address = daemon.start()
    print(f"repro.serve listening on {format_address(address)} "
          f"(lanes={cfg.lanes} n={cfg.n} protocol={cfg.protocol})",
          flush=True)
    daemon.serve_forever()
    print("repro.serve drained and stopped", flush=True)
    return 0


__all__ = ["Job", "ServeConfig", "ServeDaemon", "serve_main"]
