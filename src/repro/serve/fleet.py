"""Lanes: warm worker fleets that execute the daemon's job stream.

A **lane** is the unit of concurrency *and* of failure containment (the
bulkhead): it owns ``n`` persistent worker processes (forks of the
daemon, which preloaded every job's imports), runs **at most one job at a
time** on them, and is recycled — killed and forked anew — as a whole when
something it contains goes wrong.  The daemon hands queued jobs to idle
lanes, so up to ``lanes`` jobs run at once, and a poisoned spec, worker
crash or timeout in one lane never perturbs the jobs in the others.

Underneath, a lane is a :class:`~repro.runtime.fleet.Fleet` — the same
listener, ``hello`` identification, control connections, boot, job loop
and reaper a one-shot ``run_live`` drives (docs/runtime.md) — fed ``job``
after ``job`` on the one peer mesh its hosts built at ``go``.  Per job the
fleet broadcasts a ``job`` frame (spec, ``RunConfig.to_wire()``, a fresh
**epoch**) and collects one ``done`` report per host; the lane sends
``job_end`` and turns the reports through the shared
:func:`~repro.runtime.fleet.assemble` into the run report a one-shot live
run produces.

Failure paths, in order of severity:

* ``job_error`` from any host (poisoned spec / mid-run application
  exception): the job is dead-lettered, the remaining hosts get an
  ``abort`` and ack with ``aborted`` — the lane stays warm;
* job timeout: same abort path; hosts that do not ack within the grace
  window force a recycle;
* host process death: the job is dead-lettered and the lane is recycled
  unconditionally (the survivors' meshes still route toward the corpse,
  and serve jobs run without the reliable channel that would recover
  those frames).

A **recycle** stops the fleet (shutdown, SIGTERM, grace, SIGKILL), then
forks and re-handshakes the hosts on the surviving listener; the rolling
restart is one recycle per lane, serialised, between jobs.

A lane has no thread: it is a state machine the daemon's one loop steps
(:meth:`Lane.step`) when its fleet's selector is ready or its own clock
is due.  Every wait — the boot's handshake, a job, an abort's grace, a
recycle's reap — is a deadline checked at a step, never a sleep, so a
wedged host holds up its own lane and nothing else.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional

from ..experiments.specs import AppSpec
from ..obs.report import build_report
from ..runtime.fleet import (EXIT_POLL_S, TICK_S, Fleet, Worker, assemble,
                             spawn_worker)

#: Abort-ack grace: hosts unwind at quantum granularity, so acks are
#: prompt; a host that stays silent this long is wedged and gets recycled.
ABORT_GRACE_S = 5.0


class Lane:
    """One warm fleet, stepped by the daemon's loop (see module docstring).

    ``state`` is boot | idle | busy | aborting | recycling | failed |
    stopped.  ``source`` is the daemon, duck-typed: ``job_finished(job,
    outcome)``, ``job_dead(job, error, traceback)`` and
    ``lane_failed(lane, traceback)``; the daemon hands an idle lane its
    next job with :meth:`run`.
    """

    def __init__(self, lane_id: int, scfg, run_dir: str, source) -> None:
        self.lane_id = lane_id
        self.scfg = scfg
        self.n = scfg.n
        self.dir = os.path.join(run_dir, f"lane{lane_id}")
        self.source = source
        self.state = "boot"
        self.due = 0.0               # monotonic: the next step it is owed
        self.recycle_due = False     # recycle at the next job boundary
        self.epoch = 0               # last dispatched job epoch
        self.restarts = 0            # completed recycles
        self.jobs_run = 0
        self.boot_s = 0.0            # last boot or recycle: spawn -> go
        self.current_job = None
        self._fleet: Optional[Fleet] = None
        self._reaping = True         # a stop to finish before the next boot
        self._t_spawn = 0.0
        self._grace = 0.0            # end of an abort's ack window

    # -- daemon-facing -------------------------------------------------------

    def open(self) -> Fleet:
        """The lane's fleet: its listener and selector (the hosts are
        forked at the first step)."""
        os.makedirs(self.dir, exist_ok=True)
        self._fleet = Fleet(self.dir, self.scfg.transport, self.scfg.host)
        return self._fleet

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
        self.state = "stopped"

    def request_recycle(self) -> None:
        """Recycle at the next job boundary: now, if the lane is idle (a
        recycle under way already is one)."""
        if self.state != "recycling":
            self.recycle_due = True
        if self.state == "idle":
            self._guard(self._between_jobs)

    def run(self, job) -> None:
        """Start ``job`` on the idle lane: its ``job`` frame goes out now."""
        self.epoch += 1
        job.t_start, job.lane = time.time(), self.lane_id
        self.current_job, self.state = job, "busy"
        self._guard(self._fleet.start_job, {
            "t": "job", "id": job.id, "epoch": self.epoch, "app": job.app,
            "run": job.config.to_wire(), "timeout_s": job.timeout_s})

    def step(self) -> None:
        """One turn of the lane: pump its fleet once, then move on."""
        self.due = time.monotonic() + TICK_S
        self._guard(self._turn)

    def snapshot(self) -> dict:
        """JSON-able lane state for the ``fleet`` API op."""
        job, fleet = self.current_job, self._fleet
        return {"lane": self.lane_id, "state": self.state,
                "restarts": self.restarts, "jobs_run": self.jobs_run,
                "epoch": self.epoch, "boot_s": round(self.boot_s, 6),
                "job": None if job is None else job.id,
                "workers": [{"pid": h.pid, "ospid": h.ospid}
                            for h in (fleet.members if fleet else ())]}

    # -- the state machine ---------------------------------------------------

    def _guard(self, step, *args) -> None:
        """Run ``step``; a defect it raises fails the job in flight and
        recycles the lane, or, between jobs, fails the lane."""
        try:
            step(*args)
        except Exception:
            tb = traceback.format_exc()
            job, self.current_job = self.current_job, None
            if job is not None:
                self.source.job_dead(job, "lane failure", tb)
                self._recycle()
            else:
                self.state = "failed"
                self.source.lane_failed(self, tb)
                self._fleet.terminate()
                self._reaping = True

    def _turn(self) -> None:
        fleet = self._fleet
        fleet.pump(0)
        if self._reaping:
            if not fleet.reaped():
                self.due = time.monotonic() + EXIT_POLL_S
            elif self.state != "failed":
                self._reaping = False
                self._spawn()
        elif self.state in ("boot", "recycling"):
            if fleet.booted():
                self.boot_s = time.monotonic() - self._t_spawn
                self.restarts += self.state == "recycling"
                self._between_jobs()
        elif self.state == "busy":
            if fleet.job_ended():
                if fleet.failure is None:
                    self._finish()
                else:
                    self._abort()
        elif self.state == "aborting":
            self._aborting()
        elif self.state == "idle":
            self._between_jobs()

    def _spawn(self) -> None:
        """Fork the lane's hosts; :meth:`Fleet.booted` takes it from here."""
        fleet, scfg = self._fleet, self.scfg
        self._t_spawn = time.monotonic()
        hosts = []
        for pid in range(self.n):
            # one log per slot, appended across recycles, keeps the history
            log = os.path.join(self.dir, f"host_{pid}.log")
            hosts.append(Worker(pid, spawn_worker(
                {"pid": pid, "slots": self.n, "endpoint": fleet.endpoint,
                 "run_dir": self.dir, "transport": scfg.transport,
                 "host": scfg.host}, log), log))
        fleet.start_boot(hosts, scfg.boot_timeout_s)

    def _between_jobs(self) -> None:
        """Recycle if asked to or a host died while idle; else take work."""
        if self.recycle_due or any(h.poll() is not None
                                   for h in self._fleet.members):
            self._recycle()
        else:
            self.state = "idle"

    def _recycle(self) -> None:
        """Stop the whole fleet (the listener survives), then boot anew."""
        self.state, self.recycle_due, self._reaping = "recycling", False, True
        self._fleet.terminate()
        self.due = 0.0

    def _finish(self) -> None:
        fleet, job = self._fleet, self.current_job
        fleet.broadcast({"t": "job_end", "epoch": self.epoch})
        fleet.flush()
        outcome = self._outcome(job)
        self.jobs_run += 1
        self.current_job = None
        self.source.job_finished(job, outcome)
        self._between_jobs()

    def _abort(self) -> None:
        """The job failed: ``abort`` the epoch on every host still
        ``running``/``done``, which must ack within :data:`ABORT_GRACE_S`."""
        fleet = self._fleet
        for h in fleet.members:
            if h.state in ("running", "done") and h.poll() is None:
                h.conn.send_frame({"t": "abort", "epoch": self.epoch})
        fleet.flush()
        self.state, self._grace = "aborting", time.monotonic() + ABORT_GRACE_S
        self._aborting()

    def _aborting(self) -> None:
        """Once every host acked or the grace passed, dead-letter the job;
        a missing ack (a wedged or dying host) or a death recycles."""
        fleet = self._fleet
        if time.monotonic() < self._grace and any(
                h.state in ("running", "done") and h.poll() is None
                for h in fleet.members):
            return
        job, self.current_job = self.current_job, None
        self.source.job_dead(job, *fleet.failure)
        if any(h.state not in ("aborted", "errored") for h in fleet.members):
            self._recycle()
        else:
            self._between_jobs()

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
