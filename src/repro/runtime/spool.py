"""Write-ahead state spools and exact work conservation for live runs.

The fault-tolerance suite proves an accounting identity on the simulator:
every work unit ends up processed, frozen in a dead worker's pool, stuck
in a dead worker's unacknowledged WORK transfer, or recorded as a
``crash_dropped`` piece — and the four places sum to the sequential node
count *exactly* (``tests/test_fault_tolerance.py``).  The simulator can
simply inspect a crashed process's memory; a SIGKILLed OS process leaves
none, so in fault mode each live worker maintains a **spool**: an
atomically replaced JSON snapshot of exactly the state the oracle needs —

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
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..apps.base import Application
from .codec import from_wire, to_wire

#: Inner message kind whose payload carries a work piece.
_WORK = "WORK"


def spool_path(run_dir: str, pid: int) -> str:
    return os.path.join(run_dir, f"spool_{pid}.json")


def write_spool(path: str, doc: dict) -> int:
    """Atomically replace the spool (tmp + rename: a reader — or the
    post-mortem — sees the previous snapshot or this one, never a mix).
    Returns the size written."""
    tmp = path + ".tmp"
    # one-shot ``dumps`` runs the C encoder; ``json.dump`` would stream
    # the document through the pure-Python ``iterencode``
    text = json.dumps(doc, separators=(",", ":"))
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return len(text)   # ASCII (``ensure_ascii``): characters == bytes


def read_spool(path: str) -> Optional[dict]:
    """Load a spool; None when the worker died before its first commit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def build_spool_doc(proc) -> dict:
    """Snapshot a worker's conservation-relevant state (see module doc)."""
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


__all__ = ["build_spool_doc", "conserved_units_live", "drain", "read_spool",
           "spool_path", "write_spool"]
