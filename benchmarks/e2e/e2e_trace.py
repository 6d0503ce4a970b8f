"""Span tracing for the traced benchmark run.

The traced run wraps the public functions listed in :data:`TARGETS` from
outside ``src/`` — nothing in the program under test knows about it.  The
same module serves every process of a run:

* the benchmark's own process calls :func:`install` after its untraced
  repetitions (names that importing modules hold by value are rebound,
  classes are patched in place, so instances created afterwards see the
  wrappers; ``fork``ed shard children inherit them);
* spawned workers, jobhosts and the serve daemon load it through
  ``tracesite/sitecustomize.py``, which is on ``PYTHONPATH`` and switched
  on by ``E2E_TRACE_DIR`` — both only set for the traced run.

Per-call spans are folded in memory into ``calls``, inclusive ``busy_s``,
``self_s`` (inclusive minus wrapped children, per thread) and an optional
``amount`` (bytes, frames) per function.  Coarse spans (a simulator run, a
shard window, a fleet run, a job) are kept one by one with name, start,
end, parent and the run id every process of a repetition shares.  Every
process dumps one JSON file into ``E2E_TRACE_DIR`` when it exits; the
benchmark merges them with :func:`collect`.

Clocks: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, which is shared
by all processes of the machine, so spans of different processes line up.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import sys
import threading
import time

ENV_DIR = "E2E_TRACE_DIR"      # where processes dump; also the on-switch
ENV_RUN = "E2E_TRACE_RUN"      # id shared by the processes of a repetition

# (module, qualified name, layer, kind).  Kinds:
#   call    fold calls / inclusive / self time
#   outer   like call, but only the outermost activation counts (the
#           function recurses through its own module-level name)
#   gen     generator function: each resumption is timed, one call per
#           generator
#   coarse  like call, and every activation is also kept as its own span
# A layer suffix after ":" names an amount hook from _AMOUNTS.
TARGETS = (
    ("repro.sim.events", "EventQueue.push", "sim.events", "call"),
    ("repro.sim.events", "EventQueue.pop", "sim.events", "call"),
    ("repro.sim.events", "EventQueue.peek_time", "sim.events", "call"),
    ("repro.sim.engine", "Simulator.run", "sim.engine", "coarse"),
    ("repro.sim.engine", "Simulator.run_window", "sim.engine", "coarse"),
    ("repro.sim.engine", "Simulator.transmit", "sim.engine", "call"),
    ("repro.sim.process", "SimProcess.send", "sim.engine", "call"),
    ("repro.sim.process", "SimProcess.occupy", "sim.engine", "call"),
    ("repro.sim.process", "SimProcess.call_at", "sim.engine", "call"),
    ("repro.sim.shard", "run_sharded", "sim.shard", "coarse"),
    ("repro.core.worker", "WorkerProcess.on_message", "core.worker", "call"),
    ("repro.core.worker", "WorkerProcess.on_cpu_free", "core.worker", "call"),
    ("repro.core.worker", "WorkerProcess.send", "core.worker", "call"),
    ("repro.core.worker", "WorkerProcess.send_work", "core.worker", "call"),
    ("repro.core.oclb", "OverlayWorker.handle", "core.oclb", "call"),
    ("repro.core.oclb", "OverlayWorker.on_idle", "core.oclb", "call"),
    ("repro.core.oclb", "OverlayWorker.on_work_received", "core.oclb",
     "call"),
    ("repro.core.termination", "TerminationWaves.handle",
     "core.termination", "call"),
    ("repro.core.termination", "TerminationWaves.root_try",
     "core.termination", "call"),
    ("repro.core.reliable", "ReliableChannel.send", "core.reliable", "call"),
    ("repro.core.reliable", "ReliableChannel.on_ack", "core.reliable",
     "call"),
    ("repro.uts.work", "UTSWork.split", "work", "call"),
    ("repro.uts.work", "UTSWork.merge", "work", "call"),
    ("repro.bnb.work", "BnBWork.split", "work", "call"),
    ("repro.bnb.work", "BnBWork.merge", "work", "call"),
    ("repro.apps.synthetic", "SyntheticWork.split", "work", "call"),
    ("repro.apps.synthetic", "SyntheticWork.merge", "work", "call"),
    ("repro.apps.synthetic", "SyntheticApplication.process", "apps.synthetic",
     "call"),
    ("repro.apps.synthetic", "SyntheticApplication.process_quanta",
     "apps.synthetic", "call"),
    ("repro.apps.uts_app", "UTSApplication.process", "uts", "call"),
    ("repro.apps.uts_app", "UTSApplication.process_quanta", "uts", "call"),
    ("repro.uts.tree", "expand", "uts", "call:expand"),
    ("repro.apps.bnb_app", "BnBApplication.process", "bnb", "call"),
    ("repro.bnb.engine", "BnBEngine.explore", "bnb", "call"),
    ("repro.overlay.tree", "deterministic_tree", "overlay", "call"),
    ("repro.overlay.bridges", "add_bridges", "overlay", "call"),
    ("repro.experiments.runner", "worker_factory", "experiments.runner",
     "call"),
    ("repro.experiments.runner", "build_workers", "experiments.runner",
     "call"),
    ("repro.obs.report", "build_report", "obs", "call"),
    ("repro.runtime.supervisor", "run_live", "runtime.supervisor", "coarse"),
    ("selectors", "DefaultSelector.select", "idle", "call"),
    ("repro.runtime.spool", "build_spool_doc", "runtime.spool", "call"),
    ("repro.runtime.spool", "write_spool", "runtime.spool", "call:spool"),
    ("repro.runtime.codec", "to_wire", "runtime.codec", "outer"),
    ("repro.runtime.codec", "from_wire", "runtime.codec", "outer"),
    ("repro.runtime.codec", "pack_frame", "runtime.codec", "call:packed"),
    ("repro.runtime.codec", "FrameDecoder.feed", "runtime.codec",
     "gen:fed"),
    ("repro.runtime.transport", "FramedConnection.send_frame",
     "runtime.transport", "call:sent"),
    ("repro.runtime.transport", "FramedConnection.flush",
     "runtime.transport", "call"),
    ("repro.runtime.transport", "FramedConnection.receive",
     "runtime.transport", "call:received"),
    ("repro.runtime.mesh", "PeerMesh.send", "runtime.mesh", "call:one"),
    ("repro.runtime.mesh", "PeerMesh.service", "runtime.mesh", "call"),
    ("repro.runtime.mesh", "PeerMesh.flush_all", "runtime.mesh", "call"),
    ("repro.runtime.env", "WallTimerQueue.fire_due", "runtime.env",
     "call:result"),
    ("repro.runtime.env", "LiveEnv.transmit", "runtime.env", "call"),
    ("repro.runtime.env", "LiveEnv.deliver", "runtime.env", "call"),
    ("repro.runtime.worker", "build_app", "serve.jobhost", "coarse"),
    ("repro.serve.daemon", "ServeDaemon.op_submit", "serve.daemon", "call"),
    ("repro.serve.daemon", "ServeDaemon.op_status", "serve.daemon", "call"),
)

_now = time.perf_counter
_tl = threading.local()
_lock = threading.Lock()
_threads: list[list] = []       # every thread's fold, for the dump
_names: list[str] = []          # fold index // 4 -> "layer|module.qualname"
_spans: list = []               # (name, start, end, parent index, thread)
_marks: list[tuple] = []        # (kind, time, sent, id): control frames seen
_phases: dict[str, list] = {}   # finished phases of this process
_phase = "pre"
_installed = False
_owner_pid = 0
_FAILED = object()

# Control frames that delimit a worker's / jobhost's measured window.
_MARK_TYPES = frozenset(("go", "job", "done"))


def _fold() -> list:
    """This thread's fold: 4 numbers per wrapped function, then the time
    wrapped children of the running span took, then its coarse parent."""
    try:
        return _tl.fold
    except AttributeError:
        fold = _tl.fold = [0.0] * (4 * len(_names)) + [0.0, -1]
        with _lock:
            _threads.append(fold)
        return fold


def _mark_frame(frame, sent: bool) -> None:
    kind = frame.get("t") if isinstance(frame, dict) else None
    if kind in _MARK_TYPES:
        _marks.append((kind, _now(), sent,
                       frame.get("id") or frame.get("job") or ""))
        # a worker's measured window opens when it receives "go" (a
        # jobhost's at "job") and closes when it reports "done"; the
        # supervisor and the lanes see the same frames the other way round
        # and stay in one phase
        if not sent and kind in ("go", "job"):
            phase("run")
        elif sent and kind == "done":
            phase("post")


def _amount_sent(args, _result) -> float:
    _mark_frame(args[1], True)
    return 1.0


def _amount_received(_args, result) -> float:
    for frame in result:
        _mark_frame(frame, False)
    return float(len(result))


def _amount_spool(args, _result) -> float:
    try:
        return float(os.path.getsize(args[0]))
    except OSError:
        return 0.0


_AMOUNTS = {
    "sent": _amount_sent,
    "received": _amount_received,
    "spool": _amount_spool,
    "packed": lambda _args, result: float(len(result)),
    "fed": lambda args, _result: float(len(args[1])),
    "expand": lambda args, _result: float(len(args[0])),
    "result": lambda _args, result: float(result or 0),
    "one": lambda _args, _result: 1.0,
}


def _wrap_call(fn, i, amount, coarse, name):
    def wrapper(*args, **kwargs):
        fold = _fold()
        outer = fold[-2]
        fold[-2] = 0.0
        if coarse:
            parent = fold[-1]
            fold[-1] = len(_spans)
            _spans.append(None)
        t0 = _now()
        result = _FAILED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = _now()
            dt = t1 - t0
            fold[i] += 1
            fold[i + 1] += dt
            fold[i + 2] += dt - fold[-2]
            fold[-2] = outer + dt
            if amount is not None and result is not _FAILED:
                fold[i + 3] += amount(args, result)
            if coarse:
                _spans[fold[-1]] = (name, t0, t1, parent,
                                    threading.get_ident())
                fold[-1] = parent
    return wrapper


def _wrap_fast(fn, i):
    """The hot-path wrapper: no amount, no span record."""
    def wrapper(*args, **kwargs):
        try:
            fold = _tl.fold
        except AttributeError:
            fold = _fold()
        outer = fold[-2]
        fold[-2] = 0.0
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            fold[i] += 1
            fold[i + 1] += dt
            fold[i + 2] += dt - fold[-2]
            fold[-2] = outer + dt
    return wrapper


def _wrap_outer(fn, i):
    timed = _wrap_fast(fn, i)
    depth = threading.local()

    def wrapper(*args, **kwargs):
        if getattr(depth, "inside", False):
            return fn(*args, **kwargs)
        depth.inside = True
        try:
            return timed(*args, **kwargs)
        finally:
            depth.inside = False
    return wrapper


def _wrap_gen(fn, i, amount):
    def wrapper(*args, **kwargs):
        fold = _fold()
        fold[i] += 1
        if amount is not None:
            fold[i + 3] += amount(args, None)
        it = fn(*args, **kwargs)
        while True:
            outer = fold[-2]
            fold[-2] = 0.0
            t0 = _now()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = _now() - t0
                fold[i + 1] += dt
                fold[i + 2] += dt - fold[-2]
                fold[-2] = outer + dt
            yield item
    return wrapper


def _rebind(original, wrapper, owner=None) -> None:
    """Point every by-value copy of ``original`` at ``wrapper``: the
    ``from x import f`` names of other modules, and for a method the
    dispatch tables its class keeps (``{"status": op_status, ...}``)."""
    if owner is not None:
        for table in vars(owner).values():
            if isinstance(table, dict):
                for key, value in table.items():
                    if value is original:
                        table[key] = wrapper
        return
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if names is None or mod.__name__ == __name__:
            continue
        for key, value in list(names.items()):
            if value is original:
                names[key] = wrapper


def install(dump_at_exit: bool = True) -> None:
    """Wrap every target (idempotent).  Call before the objects whose
    methods are traced are created.  The benchmark's own process passes
    ``dump_at_exit=False``: it hands its spans over through collect()."""
    global _installed, _owner_pid
    if _installed:
        return
    _installed = True
    _owner_pid = os.getpid()
    for modname, qual, layer, kind in TARGETS:
        mod = importlib.import_module(modname)
        owner = mod
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(owner, attr)
        kind, _, hook = kind.partition(":")
        amount = _AMOUNTS[hook] if hook else None
        i = 4 * len(_names)
        name = f"{layer}|{modname}.{qual}"
        _names.append(name)
        if kind == "gen":
            wrapper = _wrap_gen(original, i, amount)
        elif kind == "outer":
            wrapper = _wrap_outer(original, i)
        elif kind == "coarse" or amount is not None:
            wrapper = _wrap_call(original, i, amount, kind == "coarse", name)
        else:
            wrapper = _wrap_fast(original, i)
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        _rebind(original, wrapper, owner if path else None)
    if dump_at_exit:
        atexit.register(dump)
    # multiprocessing children (shard processes) leave through os._exit:
    # hand them a finalizer, and a clean slate so the parent's spans are
    # not counted twice
    from multiprocessing import util as mp_util
    mp_util.register_after_fork(_tl, _after_fork)
    reset()


def _after_fork(_obj) -> None:
    from multiprocessing import util as mp_util
    reset()
    mp_util.Finalize(None, dump, exitpriority=0)


def reset() -> None:
    """Forget everything recorded so far in this process."""
    global _phase
    with _lock:
        del _threads[:]
    if hasattr(_tl, "fold"):
        del _tl.fold
    del _spans[:]
    del _marks[:]
    _phases.clear()
    _phase = "pre"


def _drain_fold() -> list:
    """Sum and zero every thread's fold."""
    total = [0.0] * (4 * len(_names))
    with _lock:
        for fold in _threads:
            for k in range(len(total)):
                total[k] += fold[k]
                fold[k] = 0.0
    return total


def _close_phase() -> None:
    done = _drain_fold()
    kept = _phases.get(_phase)
    _phases[_phase] = (done if kept is None
                       else [a + b for a, b in zip(kept, done)])


def phase(name: str) -> None:
    """Close the current phase and open ``name``; folds are kept per phase
    so that time before ``go`` and after ``done`` stays out of the run."""
    global _phase
    if name != _phase:
        _close_phase()
        _phase = name


class span:
    """A coarse span opened by the benchmark itself (``with span(...)``)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "span":
        fold = _fold()
        self._parent = fold[-1]
        self._index = fold[-1] = len(_spans)
        _spans.append(None)
        self._t0 = _now()
        return self

    def __exit__(self, *_exc) -> None:
        _spans[self._index] = (self.name, self._t0, _now(), self._parent,
                               threading.get_ident())
        _fold()[-1] = self._parent


def _role() -> str:
    main = sys.modules.get("__main__")
    spec = getattr(main, "__spec__", None)
    if spec is not None and spec.name:
        return spec.name
    return os.path.basename(sys.argv[0]) if sys.argv and sys.argv[0] else "?"


def snapshot() -> dict:
    """Everything this process recorded, as a JSON-ready document."""
    _close_phase()
    phases = {}
    for pname, total in _phases.items():
        rows = {}
        for k, name in enumerate(_names):
            calls, busy, self_s, amount = total[4 * k:4 * k + 4]
            if calls:
                rows[name] = [int(calls), busy, self_s, amount]
        phases[pname] = rows
    return {
        "role": "fork" if os.getpid() != _owner_pid else _role(),
        "ospid": os.getpid(),
        "run": os.environ.get(ENV_RUN, ""),
        "phases": phases,
        "spans": list(_spans) + _window_spans(),
        "marks": list(_marks),
    }


def _window_spans() -> list:
    """A worker's run and a jobhost's jobs as spans: from the frame that
    started them to the "done" report, named by the job id they carry."""
    spans, opened = [], None
    for kind, t, sent, ident in _marks:
        if not sent and kind in ("go", "job"):
            opened = (kind, t, ident)
        elif sent and kind == "done" and opened is not None:
            spans.append(("run" if opened[0] == "go" else f"job:{opened[2]}",
                          opened[1], t, -1, threading.get_ident()))
            opened = None
    return spans


def dump() -> None:
    out_dir = os.environ.get(ENV_DIR)
    if not out_dir or not _installed:
        return
    doc = snapshot()
    path = os.path.join(out_dir, f"{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def collect(out_dir: str) -> list[dict]:
    """The benchmark side: this process's snapshot plus every dump the
    other processes of the repetition left in ``out_dir`` (consumed)."""
    docs = [snapshot()]
    reset()
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".json"):
            path = os.path.join(out_dir, entry)
            with open(path) as fh:
                docs.append(json.load(fh))
            os.unlink(path)
    return docs


def fold_layers(docs: list[dict], roles=None, phases=None) -> dict:
    """Sum ``[calls, busy_s, self_s, amount]`` per traced function over the
    chosen processes and phases (``None``: all); keys are
    ``layer|module.qualname``."""
    out: dict[str, list] = {}
    for doc in docs:
        if roles is not None and doc["role"] not in roles:
            continue
        for pname in (doc["phases"] if phases is None else phases):
            for name, row in doc["phases"].get(pname, {}).items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
                for k in range(4):
                    acc[k] += row[k]
    return out
