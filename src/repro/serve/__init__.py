"""`repro.serve`: a long-lived work-distribution service over the live runtime.

Where :mod:`repro.runtime` executes **one** run per fleet, this package
keeps fleets *warm* and feeds them a **stream** of jobs: ``python -m
repro.serve`` starts a daemon (:mod:`repro.serve.daemon`) that takes job
specs over a newline-JSON API and runs them on lanes of persistent worker
processes (:mod:`repro.serve.fleet`), with a bounded queue, admission
control, per-lane bulkheads, dead-letter records and drain / rolling
restart.  See ``docs/serve.md``, and :mod:`repro.serve.loadgen` for the
sustained-traffic benchmark client.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .daemon import ServeConfig, ServeDaemon, serve_main

__getattr__, __dir__, __all__ = lazy(
    __name__, {".daemon": "ServeConfig ServeDaemon serve_main"})
