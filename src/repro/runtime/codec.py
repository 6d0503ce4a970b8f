"""Pickle-free wire encoding: tagged JSON payloads in one binary record.

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
  as its generator parameters + (state, depth) stacks, each stack the
  ``bytes`` of its raw little-endian array (``uint64`` states, ``int32``
  depths: exact above 2^53, and one buffer per stack instead of one
  boxed ``int`` per entry);
  :class:`~repro.bnb.work.BnBWork` as its interval set.  A piece is
  recognised by its ``wire_tag`` and its class imported when the first of
  its kind is decoded: a process loads only the applications it runs.

**The record** (:func:`pack` / :func:`unpack`) carries such a document
on the socket and in the spool alike: a JSON head in which every
``bytes`` is a ``{"__raw": [offset, length]}`` reference, then the raw
tail those references tile, in order, from offset 0 to its end.  A frame
is ``4-byte big-endian length + 4-byte head length + head + tail`` (a
frame without ``bytes`` has an empty tail); the spool puts its slot
header and checksum in front of the same head and tail.  Everything read
is outside input: a record that does not decode raises
:class:`WireError`, and a peer closing mid-frame is detectable:
:meth:`FrameDecoder.close` raises if buffered bytes remain.
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

#: A frame's prefix: body length, then the body's head length.
_LEN = struct.Struct(">I")
_PREFIX = struct.Struct(">II")


class WireError(SimRuntimeError):
    """Malformed frame or payload on the live transport."""


# -- payload encoding --------------------------------------------------------

def to_wire(obj: Any) -> Any:
    """The :func:`pack`-able form of a protocol payload (see module
    docstring): JSON values, plus ``bytes`` for UTS stacks."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, list):
        return [to_wire(x) for x in obj]
    if isinstance(obj, tuple):
        return {"__t": [to_wire(x) for x in obj]}
    if isinstance(obj, frozenset):
        return {"__fs": sorted(to_wire(x) for x in obj)}
    if isinstance(obj, set):
        return {"__s": sorted(to_wire(x) for x in obj)}
    if isinstance(obj, dict):
        return {"__d": [[to_wire(k), to_wire(v)] for k, v in obj.items()]}
    tag = getattr(obj, "wire_tag", None)
    if tag == "__uts":
        states, depths = obj.peek()
        return {"__uts": {"p": list(dataclasses.astuple(obj.params)),
                          "s": states.astype("<u8", copy=False).tobytes(),
                          "d": depths.astype("<i4", copy=False).tobytes()}}
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
                if type(body) is not int or body < 0:
                    raise WireError(f"bad synthetic unit count {body!r}")
                return SyntheticWork(body)
        raise WireError(f"unknown wire tag in {sorted(obj)!r}")
    return obj


def _unpack_stack(raw: Any, dtype: str) -> np.ndarray:
    """One packed UTS stack (the raw little-endian array)."""
    if not isinstance(raw, bytes) or len(raw) % np.dtype(dtype).itemsize:
        # not a raw tail piece, or a ragged last entry
        raise WireError(f"bad packed {dtype} stack: {raw!r:.40}")
    return np.frombuffer(raw, dtype=dtype)


def _bnb_from_wire(n_jobs: int, intervals: list):
    """Rebuild B&B work keeping the sender's interval order.

    ``BnBWork.merge`` appends what it receives, so a pool that absorbed a
    transfer is legitimately not ascending and the validating constructor
    would refuse it.  The wire is still outside input: the job count is
    checked before it sizes anything (``n!`` leaves), then range and
    overlap, on a sorted copy.
    """
    from ..bnb.interval import tree_leaves
    from ..bnb.taillard import TA_SIZE
    from ..bnb.work import BnBWork
    if type(n_jobs) is not int or not 1 <= n_jobs <= TA_SIZE:
        raise WireError(f"B&B job count {n_jobs!r} outside [1, {TA_SIZE}]")
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


# -- the record: JSON head + raw tail ----------------------------------------

def pack(obj: Any) -> tuple[bytes, list[bytes]]:
    """The record of ``obj`` (see module docstring): its JSON head and the
    tail pieces, one per ``bytes`` in ``obj``, in document order."""
    tail: list[bytes] = []
    at = 0

    def stash(raw):
        nonlocal at
        if not isinstance(raw, bytes):
            raise WireError(f"cannot pack {type(raw).__name__}: {raw!r:.40}")
        tail.append(raw)
        at += len(raw)
        return {"__raw": [at - len(raw), len(raw)]}

    # one-shot ``dumps`` runs the C encoder, which hands each ``bytes`` to
    # ``stash`` and writes the reference it returns
    head = json.dumps(obj, separators=(",", ":"), allow_nan=False,
                      default=stash)
    return head.encode("ascii"), tail


def unpack(head: bytes, tail) -> Any:
    """Inverse of :func:`pack`: ``tail`` is the pieces joined.  The
    references must tile the tail in order, from offset 0 to its end: one
    out of range, overlapping, out of order or leaving a gap, and tail
    bytes nothing references, raise :class:`WireError`."""
    at = 0

    def take(obj: dict):
        nonlocal at
        if len(obj) != 1 or "__raw" not in obj:
            return obj
        ref = obj["__raw"]
        if (type(ref) is not list or len(ref) != 2
                or any(type(v) is not int for v in ref)
                or ref[0] != at or not 0 <= ref[1] <= len(tail) - at):
            raise WireError(f"raw reference {ref!r:.40} does not continue "
                            f"the tail at {at} of {len(tail)} bytes")
        at += ref[1]
        return bytes(tail[ref[0]:at])

    try:
        # a hook costs a decoder per call and a call per object; a head
        # with no reference (every control frame, most messages) needs
        # none: ``pack`` spells each reference's key out
        obj = (json.loads(head, object_hook=take) if b'"__raw"' in head
               else json.loads(head))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable record head: {exc}") from exc
    if at != len(tail):
        raise WireError(f"{len(tail) - at} tail bytes no reference names")
    return obj


# -- framing -----------------------------------------------------------------

def pack_frame(obj: dict) -> bytes:
    """One length-prefixed frame holding the record of ``obj``."""
    head, tail = pack(obj)
    size = _LEN.size + len(head) + sum(map(len, tail))
    if size > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {size} bytes out of range")
    return b"".join((_PREFIX.pack(size, len(head)), head, *tail))


class FrameDecoder:
    """Incremental parser of a length-prefixed frame stream.

    Feed it whatever ``recv`` returned — a byte at a time, half a frame,
    three frames at once — and it yields each complete frame object as
    soon as its last byte arrives.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[dict]:
        """Absorb ``data``; yields every frame it completes."""
        self._buf.extend(data)
        while True:
            if len(self._buf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buf)
            if length < _LEN.size:
                raise WireError(f"frame body of {length} bytes has no "
                                f"head length")
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame length {length} exceeds "
                                f"{MAX_FRAME_BYTES} (corrupt prefix?)")
            end = _LEN.size + length
            if len(self._buf) < end:
                return
            _, n_head = _PREFIX.unpack_from(self._buf)
            split = _PREFIX.size + n_head
            if split > end:
                raise WireError(f"head of {n_head} bytes past the frame "
                                f"body of {length}")
            head = bytes(self._buf[_PREFIX.size:split])
            tail = bytes(self._buf[split:end])
            del self._buf[:end]
            obj = unpack(head, tail)
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
           "message_from_frame", "message_to_frame", "pack", "pack_frame",
           "to_wire", "unpack"]
