"""Lanes: warm worker fleets that execute the daemon's job stream.

A **lane** is the unit of concurrency *and* of failure containment (the
bulkhead): it owns ``n`` persistent worker processes (forks of the
daemon, which preloaded every job's imports), runs **at most one job at a
time** on them, and is recycled — killed and forked anew — as a whole when
something it contains goes wrong.  The daemon starts ``lanes`` of them
against one shared job queue, so the service executes up to ``lanes`` jobs
concurrently, and a poisoned spec, worker crash or timeout in one lane
never perturbs the jobs running in the others.

Underneath, a lane is a :class:`~repro.runtime.fleet.Fleet` — the same
listener, ``hello`` identification, control connections, boot, job loop
and reaper a one-shot ``run_live`` drives (docs/runtime.md) — fed ``job``
after ``job`` where the one-shot run sends a single one.  The hosts build
their peer mesh once, at ``go``, and every job's protocol frames ride it;
the lane sees control frames only.  Per job the fleet broadcasts a ``job``
frame (spec + the job's ``RunConfig.to_wire()`` + a fresh **epoch**) and
collects one ``done`` report per host (:meth:`Fleet.run_job`); the lane
sends ``job_end`` and turns the reports through the shared
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
forks and re-handshakes the lane's hosts on the surviving listener
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

from ..experiments.specs import AppSpec
from ..obs.report import build_report
from ..runtime.fleet import TICK_S, Fleet, Worker, assemble, spawn_worker

#: Abort-ack grace: hosts unwind at quantum granularity, so acks are
#: prompt; a host that stays silent this long is wedged and gets recycled.
ABORT_GRACE_S = 5.0


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
        self.boot_s = 0.0            # last boot or recycle: spawn -> go
        self.current_job = None
        self._fleet: Optional[Fleet] = None
        self._stop = False
        self._recycle_req: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

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
        job, fleet = self.current_job, self._fleet
        return {"lane": self.lane_id, "state": self.state,
                "restarts": self.restarts, "jobs_run": self.jobs_run,
                "epoch": self.epoch, "boot_s": round(self.boot_s, 6),
                "job": None if job is None else job.id,
                "workers": [{"pid": h.pid, "ospid": h.ospid}
                            for h in (fleet.members if fleet else ())]}

    # -- thread main ---------------------------------------------------------

    def _main(self) -> None:
        try:
            os.makedirs(self.dir, exist_ok=True)
            self._fleet = Fleet(self.dir, self.scfg.transport,
                                self.scfg.host)
            self._boot()
        except Exception:
            self.state = "failed"
            self.source.lane_failed(self, traceback.format_exc())
            self._teardown()
            return
        while not self._stop:
            if self._recycle_req is not None:
                req, self._recycle_req = self._recycle_req, None
                ok = self._rebuild()
                req.set()
                if not ok:
                    return
                continue
            if any(h.poll() is not None for h in self._fleet.members):
                # a host died while idle — rebuild before taking work
                if not self._rebuild():
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
                if not self._rebuild():
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
        hosts = []
        for pid in range(self.n):
            # one log per slot, appended across recycles, keeps the history
            log = os.path.join(self.dir, f"host_{pid}.log")
            hosts.append(Worker(pid, spawn_worker(
                {"pid": pid, "slots": self.n, "endpoint": fleet.endpoint,
                 "run_dir": self.dir, "transport": scfg.transport,
                 "host": scfg.host}, log), log))
        fleet.boot(hosts, scfg.boot_timeout_s)
        self.boot_s = time.monotonic() - t0
        self.state = "idle"

    def _recycle(self) -> None:
        """Kill and rebuild the whole fleet (listener survives)."""
        self._fleet.stop()
        self._boot()
        self.restarts += 1

    def _rebuild(self) -> bool:
        """:meth:`_recycle` between jobs; False once the lane failed
        trying (reported and torn down)."""
        try:
            self.state = "recycling"
            self._recycle()
            self.state = "idle"
            return True
        except Exception:
            self.state = "failed"
            self.source.lane_failed(self, traceback.format_exc())
            self._teardown()
            return False

    def _teardown(self) -> None:
        if self._fleet is not None:
            self._fleet.close()

    # -- one job -------------------------------------------------------------

    def _execute(self, job) -> None:
        self.epoch += 1
        job.t_start = time.time()
        job.lane = self.lane_id
        job.epoch = self.epoch
        failure = self._fleet.run_job(
            {"t": "job", "id": job.id, "epoch": self.epoch, "app": job.app,
             "run": job.config.to_wire(), "timeout_s": job.timeout_s})
        if failure is not None:
            self._fail_job(job, *failure)
            return
        self._fleet.broadcast({"t": "job_end", "epoch": self.epoch})
        self._fleet.flush()
        outcome = self._outcome(job)
        self.jobs_run += 1
        self.source.job_finished(job, outcome)

    def _fail_job(self, job, error: str, tb: str) -> None:
        """Abort the epoch everywhere, then dead-letter the job.

        Hosts still ``running``/``done`` get an ``abort`` and must ack;
        a missing ack (a wedged or dying host) or a host that died
        escalates to a recycle.
        """
        fleet = self._fleet
        targets = [h for h in fleet.members
                   if h.state in ("running", "done") and not h.conn.closed
                   and h.poll() is None]
        for h in targets:
            h.conn.send_frame({"t": "abort", "epoch": self.epoch})
        fleet.flush()
        grace = time.monotonic() + ABORT_GRACE_S
        while time.monotonic() < grace and any(
                h.state in ("running", "done") and h.poll() is None
                for h in targets):
            fleet.pump(TICK_S)
        self.source.job_dead(job, error, tb)
        if any(h.state not in ("aborted", "errored")
               or h.poll() is not None for h in fleet.members):
            self.state = "recycling"
            self._recycle()

    def _outcome(self, job) -> dict:
        """The finished job's result document and full run report."""
        result, stats, metrics, links = assemble(
            job.config.protocol, self.n, self.n, self._fleet.reports,
            t_go=job.t_start)
        report = build_report(
            job.config, result, stats, metrics=metrics,
            app=AppSpec.from_wire(job.app).label, unit_cost=0.0,
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


__all__ = ["ABORT_GRACE_S", "Lane"]
