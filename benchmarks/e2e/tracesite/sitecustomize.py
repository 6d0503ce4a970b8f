"""Switches span tracing on in processes the program under test spawns.

The traced benchmark run puts this directory on ``PYTHONPATH`` and sets
``E2E_TRACE_DIR``; the supervisor and the serve lanes pass ``os.environ``
through to workers and jobhosts, so they load ``e2e_trace`` here before
their own ``__main__`` runs.  Without the variable this file does nothing.
"""

import os

if os.environ.get("E2E_TRACE_DIR"):
    import importlib.util
    import sys

    _path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "e2e_trace.py")
    _spec = importlib.util.spec_from_file_location("e2e_trace", _path)
    _mod = importlib.util.module_from_spec(_spec)
    sys.modules["e2e_trace"] = _mod
    _spec.loader.exec_module(_mod)
    _mod.install()
