"""`repro.serve`: a long-lived work-distribution service over the live runtime.

Where :mod:`repro.runtime` executes **one** run per fleet — spawn workers,
run, collect, tear down — this package keeps the fleet *warm* and feeds it
a **stream** of jobs: ``python -m repro.serve`` starts a daemon that
preloads every job's imports and forks persistent worker processes from
itself (:mod:`repro.serve.fleet`), accepts job specs over a small
newline-JSON API (:mod:`repro.serve.daemon`), and multiplexes the jobs
onto the warm fleet instead of paying a fork + handshake per run.

The resilience patterns the service layer implements:

* **queue-based load leveling** — a bounded FIFO job queue decouples the
  submission rate from the execution rate; ``status`` responses carry the
  queue position and an ETA estimate;
* **admission control / throttling** — once the queue is full (or the
  daemon is draining) a submission is *rejected* with a structured
  ``busy`` / ``draining`` error instead of queueing without bound;
* **bulkhead isolation** — the fleet is partitioned into *lanes* (one
  in-flight job per lane, each lane its own worker processes): a poisoned
  spec, a crash or a timeout is contained to its lane and never takes
  down the daemon or the jobs running in other lanes;
* **dead-letter records** — a job that cannot complete (build error,
  worker death, timeout) is recorded with its spec, error and traceback,
  retrievable via the API;
* **graceful drain / rolling restart** — ``drain`` stops admission and
  completes every accepted job; ``restart`` recycles the lanes one at a
  time (SIGTERM-clean worker exits, fresh forks) while the other
  lanes keep serving, losing zero accepted jobs.

See ``docs/serve.md`` for the API schema and lifecycle details, and
:mod:`repro.serve.loadgen` for the sustained-traffic benchmark client.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .daemon import ServeConfig, ServeDaemon, serve_main

__getattr__, __dir__, __all__ = lazy(
    __name__, {".daemon": "ServeConfig ServeDaemon serve_main"})
