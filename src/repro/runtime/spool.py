"""Write-ahead state spools and exact work conservation for live runs.

The fault-tolerance suite proves an accounting identity on the simulator:
every work unit ends up processed, frozen in a dead worker's pool, stuck
in a dead worker's unacknowledged WORK transfer, or recorded as a
``crash_dropped`` piece — and the four places sum to the sequential node
count *exactly* (``tests/test_fault_tolerance.py``).  The simulator can
simply inspect a crashed process's memory; a SIGKILLed OS process leaves
none, so in fault mode each live worker maintains a **spool**: a
snapshot, committed whole or not at all, of exactly the state the oracle
needs —

* units processed so far,
* the local work pool,
* every unacknowledged outbound transfer (``dst, seq, kind, payload``),
* the reliable channel's receive log (``src -> delivered seqs``),
* any ``crash_dropped`` pieces.

**Write-ahead ordering** makes the snapshot consistent: the worker's
reactor commits the spool *before* flushing socket bytes whose meaning
depends on it.  A transfer only reaches the wire after it is spooled as
pending; an RACK only reaches the sender after the receipt is logged and
the merged piece is spooled in the pool.  Those are the only two, both
are reliable-channel events, so the reactor commits when the channel's
``revision`` moved (or ``crash_dropped`` grew, or on a job's first flush)
and otherwise skips: between such events a worker only moves units from
the pool to ``processed``, which the identity counts the same either way
(expansion is deterministic), and an incoming RACK only shrinks
``out_pending`` (a stale entry is cancelled by the receiver's log).
Progress alone is committed at most :data:`~repro.runtime.worker.
IDLE_TICK_S` late, for the post-mortem, and at once when it crosses the
threshold of a planned ``--kill P@Nu``, for its trigger;
``docs/runtime.md`` ("The commit rule") has the full argument.  Whatever
instant ``kill -9`` lands, the last spool on disk plus the receivers'
logs partition the work with no gap and no overlap —
:func:`conserved_units_live` just adds the places up, mirroring
``conserved_units`` in the fault-tolerance tests.

**The record.**  A spool is two slot files, the file at its path (slot 0)
and one beside it with the suffix ``.1`` (slot 1), held open by a
:class:`Spool` from a job's start to its end (opened truncated: nothing of
an earlier job survives) and overwritten in place in turn: commit ``k``
writes slot ``k % 2``.  A slot holds a header (magic, sequence number
``k``, lengths, CRC-32 of header and body), then the body: the
snapshot's record, the JSON head and raw tail of
:func:`~repro.runtime.codec.pack` that a frame carries too (every UTS
stack the little-endian bytes it is in memory).  A commit never
touches the slot holding the previous one, so whatever instant
``kill -9`` lands mid-write, the torn slot fails its checksum and a
reader (:func:`read_spool`: the valid slot with the higher sequence
number) sees the previous commit or this one, never a mix — the
guarantee ``os.replace`` of a temporary file gave, without the data flush
ext4 forces on a rename over an existing file (0.3–1.7 ms a commit, where
overwriting a slot costs microseconds).  The fault model is process
death, not power loss: the page cache outlives the process, so there is
no ``fsync`` either way.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from ..apps.base import Application
from .codec import WireError, from_wire, pack, to_wire, unpack

#: Inner message kind whose payload carries a work piece.
_WORK = "WORK"

#: Slot header: magic, sequence number, head bytes, tail bytes of the
#: record; then the CRC-32 of those and of the record.
_HEADER = struct.Struct("<4sQQQ")
_CRC = struct.Struct("<I")
_MAGIC = b"SPL1"


def spool_path(run_dir: str, pid: int) -> str:
    return os.path.join(run_dir, f"spool_{pid}")


def slot_paths(path) -> tuple[str, str]:
    """The two slot files of the spool at ``path`` (a ``str`` or a
    :class:`Spool`): commit ``k`` is written to the ``k % 2``-th."""
    path = os.fspath(path)
    return path, path + ".1"


class Spool:
    """The writing end of a spool: its two slot files, opened truncated
    (nothing of an earlier job at the same path survives) and held open
    until :meth:`close`, and the sequence number of the last commit.  A
    path-like object: ``os.fspath`` gives the spool's path."""

    __slots__ = ("path", "_fds", "_sizes", "_seq")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fds: list[int] = []
        try:
            for slot in slot_paths(path):
                self._fds.append(os.open(
                    slot, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644))
        except OSError:
            self.close()
            raise
        self._sizes = [0, 0]
        self._seq = 0

    def __fspath__(self) -> str:
        return self.path

    def __enter__(self) -> "Spool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def commit(self, head: bytes, tail: list[bytes]) -> int:
        """Overwrite the older slot with the record of
        :func:`~repro.runtime.codec.pack`; the bytes written."""
        self._seq += 1
        header = _HEADER.pack(_MAGIC, self._seq, len(head),
                              sum(map(len, tail)))
        crc = zlib.crc32(head, zlib.crc32(header))
        for raw in tail:
            crc = zlib.crc32(raw, crc)
        record = memoryview(b"".join(
            (header, _CRC.pack(crc), head, *tail)))
        slot, size = self._seq % 2, len(record)
        fd, done = self._fds[slot], 0
        while done < size:
            done += os.pwrite(fd, record[done:], done)
        if size < self._sizes[slot]:
            os.ftruncate(fd, size)   # the file is the record, no tail
        self._sizes[slot] = size
        return size

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


def write_spool(spool: Spool, doc: dict) -> int:
    """Commit ``doc``, a :func:`~repro.runtime.codec.to_wire` form, to
    ``spool`` (see module docstring: a reader sees the previous commit or
    this one, never a mix).  Returns the bytes of the slot written."""
    return spool.commit(*pack(doc))


def _read_slot(slot: str) -> Optional[tuple[int, dict]]:
    """(sequence number, snapshot) of a slot's record; None if the slot
    is missing, empty, torn or garbled."""
    try:
        with open(slot, "rb") as fh:
            data = fh.read()
        magic, seq, n_head, n_raw = _HEADER.unpack_from(data)
        (crc,) = _CRC.unpack_from(data, _HEADER.size)
    except (OSError, struct.error):
        return None
    body = _HEADER.size + _CRC.size
    split, end = body + n_head, body + n_head + n_raw
    if (magic != _MAGIC or len(data) < end
            or zlib.crc32(data[body:end],
                          zlib.crc32(data[:_HEADER.size])) != crc):
        return None
    try:
        return seq, unpack(data[body:split], memoryview(data)[split:end])
    except WireError:
        return None


def read_spool(path) -> Optional[dict]:
    """The last complete commit of a spool, as the :func:`to_wire` form
    :func:`build_spool_doc` gave; None when the worker died before its
    first commit."""
    best = None
    for slot in slot_paths(path):
        rec = _read_slot(slot)
        if rec is not None and (best is None or rec[0] > best[0]):
            best = rec
    return None if best is None else best[1]


def build_spool_doc(proc) -> dict:
    """Snapshot a worker's conservation-relevant state (see module doc),
    in :func:`to_wire` form, for :func:`write_spool`."""
    ch = proc._reliable
    out_pending = []
    recv_log: dict[str, list[int]] = {}
    if ch is not None:
        out_pending = [[xf.dst, xf.seq, xf.kind, to_wire(xf.payload)]
                       for xf in ch._pending.values()]
        recv_log = {str(src): sorted(seqs)
                    for src, seqs in ch._seen.items()}
    return {
        "pid": proc.pid,
        "processed": proc.stats.work_units,
        "pool": to_wire(proc.work),
        "out_pending": out_pending,
        "recv_log": recv_log,
        "crash_dropped": [to_wire(p) for p in proc.crash_dropped],
    }


def drain(work, app: Application, shared=None) -> int:
    """Sequentially finish a work pool, returning the units it held."""
    total = 0
    while not work.is_empty():
        out = app.process(work, 1 << 20, shared)
        if out.units <= 0:
            break
        total += out.units
    return total


def _logged(dst: int, src: int, seq: int, reports: dict[int, dict],
            spools: dict[int, dict]) -> bool:
    """Did ``dst`` log transfer ``seq`` from ``src``?  Survivors answer
    from their final reports, dead workers from their spools."""
    if dst in spools:
        log = spools[dst].get("recv_log", {})
    elif dst in reports:
        log = reports[dst].get("recv_log", {})
    else:
        return False
    return seq in log.get(str(src), ())


def conserved_units_live(app: Application, reports: dict[int, dict],
                         spools: dict[int, dict]) -> int:
    """Total units per the four-place accounting identity, live edition.

    ``reports``: surviving workers' final reports (``stats`` with
    ``work_units``, plus ``recv_log`` / ``crash_dropped``).  ``spools``:
    the last committed spool of each killed worker.
    """
    shared = app.make_shared()
    total = 0
    for rep in reports.values():                        # 1 — survivors
        total += rep["stats"]["work_units"]
        for piece in rep.get("crash_dropped", ()):      # 4
            total += drain(from_wire(piece), app, shared)
    for pid, doc in spools.items():
        total += doc["processed"]                       # 1 — pre-crash
        total += drain(from_wire(doc["pool"]), app, shared)   # 2
        for dst, seq, kind, payload in doc.get("out_pending", ()):
            if kind != _WORK:
                continue
            if not _logged(dst, pid, seq, reports, spools):   # 3
                total += drain(from_wire(payload)[0], app, shared)
        for piece in doc.get("crash_dropped", ()):      # 4 (died later)
            total += drain(from_wire(piece), app, shared)
    return total


__all__ = ["Spool", "build_spool_doc", "conserved_units_live", "drain",
           "read_spool", "slot_paths", "spool_path", "write_spool"]
