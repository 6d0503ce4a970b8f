"""Wire schema of the serve API: newline-delimited JSON, shallow validation.

One request per line, one response per line, UTF-8 JSON objects.  Every
response carries ``"ok": true`` or ``"ok": false`` plus ``"error"`` (a
stable machine-readable code) and optionally ``"detail"`` (human text).

Submission validation here is deliberately *shallow* — kind, types and
field names only; an app spec is admitted by
:meth:`repro.experiments.specs.AppSpec.from_wire`.  Deep validation (does
the UTS preset exist? is the Taillard index in range?) happens when a job
host builds the application: a spec that passes admission but fails to
build is the canonical *poisoned spec* and lands in the dead-letter store
with its traceback, instead of being silently impossible to submit.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from ..experiments.specs import KINDS
from ..sim.errors import SimConfigError

#: Protocols the service executes (the live-validated subset).
SERVE_PROTOCOLS = ("TD", "TR", "BTD", "BTR", "RWS")

#: App-spec kinds a submission may name.
APP_KINDS = tuple(KINDS)

#: Per-job run-config overrides a submission may carry.
RUN_OVERRIDES = ("protocol", "quantum", "seed", "dmax", "sharing")

#: The longest request line the daemon reads (a submit is a few hundred
#: bytes); a longer one is a ``bad-request``, and its connection is closed.
MAX_LINE = 1 << 20


class BadRequest(SimConfigError):
    """A malformed API request (rejected before admission)."""


def error_response(code: str, **fields) -> dict:
    out = {"ok": False, "error": code}
    out.update(fields)
    return out


def is_json_int(value) -> bool:
    """A JSON integer: ``true`` decodes to a Python ``int`` subclass too."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_seconds(req: dict, key: str, default: float) -> float:
    """A finite, non-negative number of seconds from a request field."""
    value = req.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0):
        raise BadRequest(f"{key!r} must be a finite number >= 0, "
                         f"not {value!r}")
    return float(value)


def validate_run(run) -> dict:
    """Per-job run overrides: a JSON object of :data:`RUN_OVERRIDES` keys
    naming a servable protocol, if any.  Their types and ranges are the
    job's :class:`~repro.experiments.runner.RunConfig`'s to check."""
    if run is None:
        return {}
    if not isinstance(run, dict):
        raise BadRequest("run overrides must be a JSON object")
    unknown = sorted(set(run) - set(RUN_OVERRIDES))
    if unknown:
        raise BadRequest(f"unknown run override(s) {unknown}; "
                         f"known: {', '.join(RUN_OVERRIDES)}")
    if "protocol" in run and run["protocol"] not in SERVE_PROTOCOLS:
        raise BadRequest(f"unknown protocol {run['protocol']!r}; "
                         f"known: {', '.join(SERVE_PROTOCOLS)}")
    return dict(run)


def parse_address(text: str) -> tuple:
    """``tcp:HOST:PORT`` or ``unix:/path`` -> a connectable address."""
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):])
    if text.startswith("tcp:"):
        host, _, port = text[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise BadRequest(f"bad tcp address {text!r} "
                             "(want tcp:HOST:PORT)")
        return ("tcp", host, int(port))
    raise BadRequest(f"bad address {text!r} (want tcp:HOST:PORT "
                     "or unix:/path)")


def format_address(addr: tuple) -> str:
    if addr[0] == "unix":
        return f"unix:{addr[1]}"
    return f"tcp:{addr[1]}:{addr[2]}"


def encode_line(obj: dict) -> bytes:
    """One response/request as a newline-JSON line."""
    return json.dumps(obj, separators=(",", ":"),
                      allow_nan=False).encode("utf-8") + b"\n"


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def decode_line(line: bytes) -> dict:
    """The JSON object of one line (``ValueError`` if it is not strict
    JSON); a line nested past the interpreter's recursion limit is a bad
    request, not a crash."""
    try:
        obj = json.loads(line, parse_constant=_no_constant)
    except RecursionError:
        raise BadRequest("request nested too deeply") from None
    if not isinstance(obj, dict):
        raise BadRequest("request must be a JSON object")
    return obj


def read_line(rfile) -> Optional[dict]:
    """Next object from a newline-JSON stream (None at EOF)."""
    line = rfile.readline()
    return decode_line(line) if line else None


__all__ = ["APP_KINDS", "BadRequest", "MAX_LINE", "RUN_OVERRIDES",
           "SERVE_PROTOCOLS", "decode_line", "encode_line", "error_response",
           "format_address", "is_json_int", "parse_address", "read_line",
           "validate_run", "validate_seconds"]
