"""Pickle-free wire encoding: tagged JSON payloads + length-prefix framing.

Protocol messages cross the socket as JSON — never pickle: a worker must
not be able to execute code smuggled by a peer, and the format stays
readable in a dump. Plain JSON is lossy for exactly the Python shapes the
protocols rely on, so containers are *tagged*:

* tuples become ``{"__t": [...]}`` — :class:`repro.core.termination.
  TerminationWaves` distinguishes fault-mode wave payloads from clean ones
  with ``isinstance(payload, tuple)``, and every protocol tuple-unpacks
  its payloads, so tuples must survive the round trip as tuples;
* sets/frozensets become ``{"__s"/"__fs": [...]}`` (sorted);
* dicts become ``{"__d": [[k, v], ...]}`` — also covers non-string keys;
* work pieces are encoded structurally: :class:`~repro.uts.work.UTSWork`
  as its generator parameters + (state, depth) stacks, each stack one
  hex string of the raw little-endian array (``uint64`` states, ``int32``
  depths: exact above 2^53, and one ``str`` per stack instead of one
  boxed ``int`` per entry; ``raw=True`` leaves the ``bytes`` unhexed for
  the spool, which stores them as they are);
  :class:`~repro.bnb.work.BnBWork` as its interval set.  A piece is
  recognised by its ``wire_tag`` and its class imported when the first of
  its kind is decoded: a process loads only the applications it runs.

Frames are ``4-byte big-endian length + UTF-8 JSON``.  Zero-length frames
are invalid (every frame carries at least ``{}``), and a peer closing
mid-frame is detectable: :meth:`FrameDecoder.close` raises if buffered
bytes remain.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Iterator

import numpy as np

from ..sim.errors import SimConfigError, SimRuntimeError
from ..sim.messages import Message, sized

#: Hard per-frame ceiling — a corrupt length prefix must not trigger a
#: multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(SimRuntimeError):
    """Malformed frame or payload on the live transport."""


# -- payload encoding --------------------------------------------------------

def to_wire(obj: Any, raw: bool = False) -> Any:
    """JSON-safe form of a protocol payload (see module docstring); with
    ``raw``, UTS stacks stay ``bytes``, which only the spool can store."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, list):
        return [to_wire(x, raw) for x in obj]
    if isinstance(obj, tuple):
        return {"__t": [to_wire(x, raw) for x in obj]}
    if isinstance(obj, frozenset):
        return {"__fs": sorted(to_wire(x, raw) for x in obj)}
    if isinstance(obj, set):
        return {"__s": sorted(to_wire(x, raw) for x in obj)}
    if isinstance(obj, dict):
        return {"__d": [[to_wire(k, raw), to_wire(v, raw)]
                        for k, v in obj.items()]}
    tag = getattr(obj, "wire_tag", None)
    if tag == "__uts":
        states, depths = obj.peek()
        s = states.astype("<u8", copy=False).tobytes()
        d = depths.astype("<i4", copy=False).tobytes()
        return {"__uts": {"p": list(dataclasses.astuple(obj.params)),
                          "s": s if raw else s.hex(),
                          "d": d if raw else d.hex()}}
    if tag == "__bnb":
        return {"__bnb": {"n": obj.n_jobs,
                          "i": [[int(a), int(b)] for a, b in obj.as_tuples()]}}
    if tag == "__syn":
        return {"__syn": obj.units}
    raise WireError(f"cannot wire-encode {type(obj).__name__}: {obj!r}")


def from_wire(obj: Any) -> Any:
    """Inverse of :func:`to_wire`."""
    if isinstance(obj, list):
        return [from_wire(x) for x in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            ((tag, body),) = obj.items()
            if tag == "__t":
                return tuple(from_wire(x) for x in body)
            if tag == "__fs":
                return frozenset(from_wire(x) for x in body)
            if tag == "__s":
                return {from_wire(x) for x in body}
            if tag == "__d":
                return {from_wire(k): from_wire(v) for k, v in body}
            if tag == "__uts":
                from ..uts.tree import UTSParams
                from ..uts.work import UTSWork
                states = _unpack_stack(body["s"], "<u8")
                depths = _unpack_stack(body["d"], "<i4")
                if len(states) != len(depths):
                    raise WireError(f"UTS stack of {len(states)} states "
                                    f"but {len(depths)} depths")
                # the constructor copies: the work owns writable arrays
                return UTSWork(UTSParams(*body["p"]),
                               states=states, depths=depths)
            if tag == "__bnb":
                return _bnb_from_wire(body["n"], body["i"])
            if tag == "__syn":
                from ..apps.synthetic import SyntheticWork
                return SyntheticWork(body)
        raise WireError(f"unknown wire tag in {sorted(obj)!r}")
    return obj


def _unpack_stack(text: Any, dtype: str) -> np.ndarray:
    """One packed UTS stack (hex of the raw little-endian array)."""
    try:
        return np.frombuffer(bytes.fromhex(text), dtype=dtype)
    except (TypeError, ValueError) as exc:
        # not a string, odd length, non-hex, or a ragged last entry
        raise WireError(f"bad packed {dtype} stack: {exc}") from exc


def _bnb_from_wire(n_jobs: int, intervals: list):
    """Rebuild B&B work keeping the sender's interval order.

    ``BnBWork.merge`` appends what it receives, so a pool that absorbed a
    transfer is legitimately not ascending and the validating constructor
    would refuse it.  The wire is still outside input: range and overlap
    are checked here, on a sorted copy.
    """
    from ..bnb.interval import tree_leaves
    from ..bnb.work import BnBWork
    work = BnBWork(n_jobs)
    limit = tree_leaves(n_jobs)
    last_end = 0
    for a, b in sorted(map(tuple, intervals)):
        if not (last_end <= a < b <= limit):
            raise WireError(f"bad or overlapping B&B interval [{a}, {b}) "
                            f"for n_jobs={n_jobs}")
        last_end = b
    work.intervals.extend([a, b] for a, b in intervals)
    return work


# -- message <-> frame object ------------------------------------------------

def message_to_frame(msg: Message) -> dict:
    """The routable frame object of one protocol message."""
    return {"t": "msg", "src": msg.src, "dst": msg.dst, "kind": msg.kind,
            "p": to_wire(msg.payload), "b": msg.size_bytes}


def message_from_frame(frame: dict) -> Message:
    """Rebuild a :class:`~repro.sim.messages.Message` from its frame.

    ``sized`` adds the header price on top of the body estimate, so the
    accounting matches the simulator's; the *stated* size is carried
    rather than re-derived because the reliable channel prices envelopes
    at the sender.  A frame that does not rebuild — a missing field, a
    payload of the wrong shape — raises :class:`WireError`, like every
    other undecodable input.
    """
    try:
        msg = sized(frame["kind"], frame["src"], frame["dst"],
                    from_wire(frame["p"]), 0)
        msg.size_bytes = frame["b"]
    except (KeyError, TypeError, ValueError, SimConfigError) as exc:
        raise WireError(f"malformed msg frame: {exc!r}") from exc
    return msg


# -- per-process stats (DONE reports) ----------------------------------------

def stats_to_wire(ps) -> dict:
    """JSON-safe dump of a :class:`~repro.sim.stats.ProcessStats` row.

    ``crash_time`` is ``+inf`` while alive — JSON has no infinity, so the
    field is simply omitted and restored by :func:`stats_from_wire`.
    """
    import math
    out = {}
    for f in dataclasses.fields(ps):
        v = getattr(ps, f.name)
        if isinstance(v, float) and math.isinf(v):
            continue
        out[f.name] = v
    return out


def stats_from_wire(doc: dict, pid: int):
    """Rebuild a ``ProcessStats`` row from :func:`stats_to_wire` output."""
    from ..sim.stats import ProcessStats
    ps = ProcessStats(pid=pid)
    for name, value in doc.items():
        if name != "pid" and hasattr(ps, name):
            setattr(ps, name, value)
    return ps


# -- framing -----------------------------------------------------------------

def pack_frame(obj: dict) -> bytes:
    """One length-prefixed frame holding ``obj`` as UTF-8 JSON."""
    body = json.dumps(obj, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if not body or len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes out of range")
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental parser of a length-prefixed frame stream.

    Feed it whatever ``recv`` returned — a byte at a time, half a frame,
    three frames at once — and it yields each complete frame object as
    soon as its last byte arrives.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> Iterator[dict]:
        """Absorb ``data``; yields every frame it completes."""
        self._buf.extend(data)
        while True:
            if len(self._buf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buf)
            if length == 0:
                raise WireError("zero-length frame on the wire")
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame length {length} exceeds "
                                f"{MAX_FRAME_BYTES} (corrupt prefix?)")
            end = _LEN.size + length
            if len(self._buf) < end:
                return
            body = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                obj = json.loads(body)
            except ValueError as exc:
                raise WireError(f"undecodable frame body: {exc}") from exc
            if not isinstance(obj, dict):
                raise WireError(f"frame body must be an object, "
                                f"got {type(obj).__name__}")
            yield obj

    def close(self) -> None:
        """The peer closed the stream; raises if it died mid-frame."""
        if self._buf:
            raise WireError(f"peer closed mid-frame "
                            f"({len(self._buf)} bytes buffered)")


__all__ = ["FrameDecoder", "MAX_FRAME_BYTES", "WireError", "from_wire",
           "message_from_frame", "message_to_frame", "pack_frame", "to_wire"]
