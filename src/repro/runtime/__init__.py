"""Live multi-process execution backend (`docs/runtime.md`).

The simulator executes the overlay protocols in virtual time; this package
executes the *same* protocol objects in wall time, over real OS processes
connected by length-prefixed sockets:

* :mod:`~repro.runtime.codec` — pickle-free (JSON-safe) wire encoding of
  protocol messages and work pieces, plus the length-prefix framing;
* :mod:`~repro.runtime.transport` — non-blocking framed connections and
  the listener (EADDRINUSE retry with ephemeral-port fallback);
* :mod:`~repro.runtime.env` — :class:`~repro.runtime.env.LiveEnv`, the
  wall-clock implementation of the execution-environment surface defined
  by :class:`repro.sim.engine.Simulator` (clock, timers, transport, stats,
  faults); protocol code cannot tell the two apart;
* :mod:`~repro.runtime.spool` — the write-ahead state spool a worker keeps
  in fault mode, and the exact work-conservation accounting over it;
* :mod:`~repro.runtime.mesh` — the data plane: direct worker<->worker
  framed connections, the only way a protocol frame travels;
* :mod:`~repro.runtime.worker` — the worker process: one
  :class:`~repro.runtime.worker.Reactor` (selector, epoch filter, job
  loop, commit-before-flush), run by a fork of its owner — the one-shot
  supervisor or a serve lane — after the owner preloaded what it runs;
* :mod:`~repro.runtime.fleet` — the owner side: forking the members, one
  :class:`~repro.runtime.fleet.Fleet` (listener, ``hello``
  identification, control connections, reaping) and the one
  ``assemble()`` that turns worker reports into the
  :class:`~repro.experiments.runner.ExperimentResult`/:class:`~repro.sim.stats.RunStats`
  pair a simulated run yields;
* :mod:`~repro.runtime.supervisor` — the one-shot run on top of a fleet:
  start barrier, membership registry, kill/join/leave/partition schedule,
  failure detection, trace merge.

Entry point: ``python -m repro.experiments live`` (see
:mod:`repro.experiments.live`).
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .supervisor import LiveConfig, LiveResult, run_live

__getattr__, __dir__, __all__ = lazy(
    __name__, {".supervisor": "LiveConfig LiveResult run_live"})
