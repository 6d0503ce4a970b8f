"""Lanes: warm worker fleets that execute the daemon's job stream.

A **lane** is the unit of concurrency *and* of failure containment (the
bulkhead): it owns ``n`` persistent worker processes
(``python -m repro.serve.jobhost``), runs **at most one job at a time** on
them, and is recycled — killed and respawned — as a whole when something
it contains goes wrong.  The daemon starts ``lanes`` of them against one
shared job queue, so the service executes up to ``lanes`` jobs
concurrently, and a poisoned spec, worker crash or timeout in one lane
never perturbs the jobs running in the others.

Underneath, a lane is a :class:`~repro.runtime.fleet.Fleet` — the same
listener, ``hello`` identification, control connections and reaper a
one-shot ``run_live`` drives (docs/runtime.md) — fed ``job`` after ``job``
where the one-shot run sends a single ``go``.  The hosts build their peer
mesh once, at ``init``, and every job's protocol frames ride it; the lane
sees control frames only.  Per job the lane broadcasts a
``job`` frame (spec + run config + a fresh **epoch**), collects one
``done`` report per host, and turns them through the shared
:func:`~repro.runtime.fleet.assemble` into the same
:class:`~repro.obs.report.RunReport` a one-shot live run produces.

Failure paths, in order of severity:

* ``job_error`` from any host (poisoned spec / mid-run application
  exception): the job is dead-lettered, the remaining hosts get an
  ``abort`` and ack with ``aborted`` — the lane stays warm, no process
  is paid;
* job timeout: same abort path; hosts that do not ack within the grace
  window force a recycle;
* host process death: the job is dead-lettered and the lane is recycled
  unconditionally (a half-dead fleet cannot be trusted — the survivors'
  meshes still route toward the corpse, and serve jobs run without the
  reliable channel that would recover those frames).

A **recycle** stops the fleet (shutdown, SIGTERM, grace, SIGKILL), then
respawns and re-handshakes the lane's hosts on the surviving listener
while other lanes keep serving; the daemon's rolling restart is exactly
one recycle per lane, serialised, between jobs — which is why it loses
nothing.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Optional

from ..experiments.runner import RunConfig
from ..obs.report import build_report
from ..runtime.fleet import Fleet, Member, assemble, spawn_worker
from ..sim.errors import SimRuntimeError
from .protocol import spec_label

#: Abort-ack grace: hosts unwind at quantum granularity, so acks are
#: prompt; a host that stays silent this long is wedged and gets recycled.
ABORT_GRACE_S = 5.0

#: Lane reactor tick while a job is in flight.
_TICK_S = 0.05


class LaneError(SimRuntimeError):
    """A lane could not (re)build its worker fleet."""


class _Host(Member):
    """One persistent worker process, lane-side."""

    __slots__ = ("state",)

    def __init__(self, pid: int, popen) -> None:
        super().__init__(pid, popen)
        self.state = "boot"      # boot|idle|running|done|errored|aborted


class Lane:
    """One warm fleet + the thread that feeds it from the job source.

    ``source`` is the daemon, duck-typed: ``next_job(lane)`` (blocking
    poll, returns ``None`` periodically so the lane can service control
    flags), ``job_finished(job, outcome)``, ``job_dead(job, error,
    traceback)`` and ``lane_failed(lane, traceback)``.
    """

    def __init__(self, lane_id: int, scfg, run_dir: str, source) -> None:
        self.lane_id = lane_id
        self.scfg = scfg
        self.n = scfg.n
        self.dir = os.path.join(run_dir, f"lane{lane_id}")
        self.source = source
        self.state = "boot"          # boot|idle|busy|recycling|failed|stopped
        self.epoch = 0               # last dispatched job epoch
        self.restarts = 0            # completed recycles
        self.jobs_run = 0
        self.boot_s = 0.0            # last boot or recycle: spawn -> init
        self.current_job = None
        self._fleet: Optional[Fleet] = None
        self._hosts: list[_Host] = []
        self._stop = False
        self._recycle_req: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None
        # per-job collection state
        self._reports: dict[int, dict] = {}
        self._errors: dict[int, dict] = {}

    # -- public (daemon-facing) ----------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name=f"lane{self.lane_id}")
        self._thread.start()

    def stop(self) -> None:
        self._stop = True

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def request_recycle(self) -> threading.Event:
        """Ask for a recycle at the next between-jobs point; the returned
        event fires when it completed (or the lane failed trying)."""
        if self._recycle_req is None:
            self._recycle_req = threading.Event()
        return self._recycle_req

    def snapshot(self) -> dict:
        """JSON-able lane state for the ``fleet`` API op."""
        job = self.current_job
        return {"lane": self.lane_id, "state": self.state,
                "restarts": self.restarts, "jobs_run": self.jobs_run,
                "epoch": self.epoch, "boot_s": round(self.boot_s, 6),
                "job": None if job is None else job.id,
                "workers": [{"pid": h.pid, "ospid": h.ospid}
                            for h in self._hosts]}

    # -- thread main ---------------------------------------------------------

    def _main(self) -> None:
        try:
            os.makedirs(self.dir, exist_ok=True)
            self._fleet = Fleet(self.dir, self.scfg.transport,
                                self.scfg.host)
            self._fleet.on_frame = self._on_frame
            self._fleet.on_eof = self._fleet.drop
            self._boot()
        except Exception:
            self.state = "failed"
            self.source.lane_failed(self, traceback.format_exc())
            self._teardown()
            return
        while not self._stop:
            if self._recycle_req is not None:
                req, self._recycle_req = self._recycle_req, None
                try:
                    self.state = "recycling"
                    self._recycle()
                    self.state = "idle"
                except Exception:
                    self.state = "failed"
                    self.source.lane_failed(self, traceback.format_exc())
                    req.set()
                    self._teardown()
                    return
                req.set()
                continue
            if any(h.popen.poll() is not None for h in self._hosts):
                # a host died while idle — rebuild before taking work
                try:
                    self.state = "recycling"
                    self._recycle()
                    self.state = "idle"
                except Exception:
                    self.state = "failed"
                    self.source.lane_failed(self, traceback.format_exc())
                    self._teardown()
                    return
                continue
            job = self.source.next_job(self)
            if job is None:
                continue
            self.state = "busy"
            self.current_job = job
            try:
                self._execute(job)
            except Exception:
                # lane-level defect: account for the job, then rebuild
                self.source.job_dead(job, "lane failure",
                                     traceback.format_exc())
                try:
                    self._recycle()
                except Exception:
                    self.state = "failed"
                    self.source.lane_failed(self, traceback.format_exc())
                    self._teardown()
                    return
            finally:
                self.current_job = None
                if self.state == "busy":
                    self.state = "idle"
        self._teardown()
        self.state = "stopped"

    # -- fleet lifecycle -----------------------------------------------------

    def _boot(self) -> None:
        fleet, scfg, t0 = self._fleet, self.scfg, time.monotonic()
        # one log per slot, appended across recycles, keeps the history
        self._hosts = fleet.members = [
            _Host(pid, spawn_worker(
                "repro.serve.jobhost",
                {"pid": pid, "slots": self.n, "endpoint": fleet.endpoint,
                 "run_dir": self.dir, "transport": scfg.transport,
                 "host": scfg.host},
                os.path.join(self.dir, f"host_{pid}.log")))
            for pid in range(self.n)]
        deadline = time.monotonic() + scfg.boot_timeout_s
        while any(h.conn is None for h in self._hosts):
            if time.monotonic() > deadline:
                raise LaneError(
                    f"lane {self.lane_id}: fleet handshake timed out "
                    f"(logs in {self.dir})")
            if any(h.popen.poll() is not None and h.conn is None
                   for h in self._hosts):
                raise LaneError(
                    f"lane {self.lane_id}: a host died during boot "
                    f"(logs in {self.dir})")
            fleet.pump(0.2)
        self._broadcast(
            {"t": "init",
             "peers": {str(h.pid): h.peer for h in self._hosts}}, "idle")
        self.boot_s = time.monotonic() - t0
        self.state = "idle"

    def _recycle(self) -> None:
        """Kill and rebuild the whole fleet (listener survives)."""
        self._fleet.stop()
        self._boot()
        self.restarts += 1

    def _teardown(self) -> None:
        if self._fleet is not None:
            self._fleet.close()

    def _broadcast(self, frame: dict, state: str) -> None:
        for h in self._hosts:
            h.state = state
        self._fleet.broadcast(frame)
        self._fleet.flush()

    def _on_frame(self, host: _Host, frame: dict) -> None:
        """A host's word on the current job (anything stamped with
        another epoch is a straggler of a job already settled)."""
        if frame.get("epoch") != self.epoch:
            return
        t = frame.get("t")
        if t == "done":
            host.state = "done"
            self._reports[host.pid] = frame
        elif t == "job_error":
            host.state = "errored"
            self._errors[host.pid] = frame
        elif t == "aborted":
            host.state = "aborted"

    # -- one job -------------------------------------------------------------

    def _execute(self, job) -> None:
        self.epoch += 1
        self._reports = {}
        self._errors = {}
        job.t_start = time.time()
        job.lane = self.lane_id
        job.epoch = self.epoch
        run = {"protocol": self.scfg.protocol, "n": self.n,
               "quantum": self.scfg.quantum, "seed": self.scfg.seed,
               "dmax": self.scfg.dmax, "sharing": self.scfg.sharing}
        run.update(job.run)
        run["n"] = self.n
        frame = {"t": "job", "id": job.id, "epoch": self.epoch,
                 "app": job.app, "run": run, "timeout_s": job.timeout_s}
        self._broadcast(frame, "running")

        deadline = time.monotonic() + job.timeout_s
        while True:
            self._fleet.pump(_TICK_S)
            dead = [h for h in self._hosts if h.popen.poll() is not None]
            if dead:
                h = dead[0]
                self._fail_job(
                    job, f"worker {h.pid} died "
                    f"(exit {h.popen.returncode}) during job {job.id}",
                    self._log_tail(h.pid), recycle=True)
                return
            if self._errors:
                pid, err = min(self._errors.items())
                self._fail_job(job, err.get("error", "job error"),
                               err.get("traceback", ""), recycle=False)
                return
            if len(self._reports) == self.n:
                break
            if time.monotonic() > deadline:
                self._fail_job(
                    job, f"job {job.id} timed out after {job.timeout_s}s",
                    "", recycle=False)
                return
        self._broadcast({"t": "job_end", "epoch": self.epoch}, "idle")
        outcome = self._outcome(job, run)
        self.jobs_run += 1
        self.source.job_finished(job, outcome)

    def _fail_job(self, job, error: str, tb: str, recycle: bool) -> None:
        """Abort the epoch everywhere, then dead-letter the job.

        Hosts still ``running``/``done`` get an ``abort`` and must ack;
        missing acks (a wedged or dying host) escalate to a recycle, as
        does ``recycle=True`` (a host process already died).
        """
        targets = [h for h in self._hosts
                   if h.state in ("running", "done")
                   and h.conn is not None and not h.conn.closed
                   and h.popen.poll() is None]
        for h in targets:
            h.conn.send_frame({"t": "abort", "epoch": self.epoch})
        self._fleet.flush()
        grace = time.monotonic() + ABORT_GRACE_S
        while time.monotonic() < grace:
            self._fleet.pump(_TICK_S)
            if all(h.state in ("aborted", "errored", "idle")
                   or h.popen.poll() is not None for h in self._hosts):
                break
        unclean = [h for h in self._hosts
                   if h.state not in ("aborted", "errored", "idle")
                   or h.popen.poll() is not None]
        self.source.job_dead(job, error, tb)
        if recycle or unclean:
            self.state = "recycling"
            self._recycle()
        else:
            for h in self._hosts:
                h.state = "idle"

    def _log_tail(self, pid: int, limit: int = 4096) -> str:
        try:
            with open(os.path.join(self.dir, f"host_{pid}.log"), "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - limit))
                return fh.read().decode("utf-8", "replace")
        except OSError:
            return ""

    def _outcome(self, job, run: dict) -> dict:
        """The finished job's result document and full run report."""
        result, stats, metrics, links = assemble(
            run["protocol"], self.n, self.n, self._reports,
            t_go=job.t_start)
        rcfg = RunConfig(protocol=run["protocol"], n=self.n,
                         dmax=run["dmax"], sharing=run["sharing"],
                         quantum=run["quantum"], seed=run["seed"])
        report = build_report(
            rcfg, result, stats, metrics=metrics, app=spec_label(job.app),
            unit_cost=0.0,
            extra_meta={"serve": True, "job_id": job.id,
                        "lane": self.lane_id, "epoch": self.epoch,
                        "queue_s": round(job.t_start - job.t_submit, 6)},
            links=links or None)
        return {"makespan": stats.makespan,
                "total_units": result.total_units,
                "total_msgs": result.total_msgs,
                "total_steals": result.total_steals,
                "optimum": result.optimum,
                "report": report.to_json()}


__all__ = ["ABORT_GRACE_S", "Lane", "LaneError"]
