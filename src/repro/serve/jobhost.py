"""Persistent worker entry point: ``python -m repro.serve.jobhost '<json>'``.

A serve lane's worker process.  It is the same
:class:`repro.runtime.worker.Reactor` a one-shot live run spawns — same
connect, ``hello``, ``go``, job loop, epoch filter and flush — and what
makes it persistent is only what its owner sends: a lane follows ``go``
with ``job`` after ``job`` (``job_end`` between them), where the one-shot
supervisor sends a single ``job`` and then ``shutdown``.  The module exists so that a lane's processes are
recognisable by name (``ps``, logs, the e2e trace's per-role accounting),
and imports everything a lane may send before ``hello``: no job pays for it.
"""

import sys

from ..runtime.worker import main, preload
from .protocol import APP_KINDS, SERVE_PROTOCOLS

if __name__ == "__main__":
    preload(*APP_KINDS, *SERVE_PROTOCOLS)
    sys.exit(main())
