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
    """Shallow-validate per-job run overrides; returns them normalised."""
    if run is None:
        return {}
    if not isinstance(run, dict):
        raise BadRequest("run overrides must be a JSON object")
    unknown = sorted(set(run) - set(RUN_OVERRIDES))
    if unknown:
        raise BadRequest(f"unknown run override(s) {unknown}; "
                         f"known: {', '.join(RUN_OVERRIDES)}")
    out = dict(run)
    proto = out.get("protocol")
    if proto is not None and proto not in SERVE_PROTOCOLS:
        raise BadRequest(f"unknown protocol {proto!r}; "
                         f"known: {', '.join(SERVE_PROTOCOLS)}")
    for key in ("quantum", "seed", "dmax"):
        if key in out and not is_json_int(out[key]):
            raise BadRequest(f"run override {key!r} must be an integer")
    for key in ("quantum", "dmax"):
        if key in out and out[key] < 1:
            raise BadRequest(f"run override {key!r} must be >= 1")
    if "sharing" in out and not isinstance(out["sharing"], str):
        raise BadRequest("run override 'sharing' must be a string")
    return out


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


def write_line(wfile, obj: dict) -> None:
    """One response/request on a newline-JSON stream."""
    wfile.write(json.dumps(obj, separators=(",", ":"),
                           allow_nan=False).encode("utf-8") + b"\n")
    wfile.flush()


def read_line(rfile) -> Optional[dict]:
    """Next object from a newline-JSON stream (None at EOF)."""
    line = rfile.readline()
    if not line:
        return None
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise BadRequest("request must be a JSON object")
    return obj


__all__ = ["APP_KINDS", "BadRequest", "RUN_OVERRIDES", "SERVE_PROTOCOLS",
           "error_response", "format_address", "is_json_int",
           "parse_address", "read_line", "validate_run", "validate_seconds",
           "write_line"]
