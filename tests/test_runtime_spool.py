"""The write-ahead spool's commit rule (``Reactor.flush``).

A fault-mode worker commits its spool only when the state that explains
outgoing bytes changed since the last commit (docs/runtime.md, "The commit
rule").  Three angles:

* the rule itself, turn by turn, on one in-process reactor;
* write-ahead order as a property of a whole run: two fault-mode reactors
  on threads, every commit and every flush recorded in order;
* ``kill -9`` at early / middle / late points of a real fleet run: the
  four-place conservation identity stays exact.
"""

import os
import socket
import sys
import threading

import pytest

import repro.runtime.worker as worker_mod
from repro.apps.synthetic import SyntheticWork
from repro.experiments.runner import worker_factory
from repro.obs.registry import MetricsRegistry
from repro.runtime.env import LiveEnv
from repro.runtime.spool import read_spool
from repro.runtime.supervisor import LiveConfig, run_live
from repro.runtime.transport import FramedConnection
from repro.runtime.worker import Reactor, build_app, build_run_config
from repro.uts.params import PRESETS

from test_runtime_reactor import Harness, N

SMALL_NODES = PRESETS["bin_small"].nodes


# -- (a) the rule, one flush at a time ---------------------------------------

@pytest.fixture
def reactor(tmp_path):
    """A fault-mode reactor wired the way ``run_job`` wires one, stopped
    just before its first flush: pid 1 of a three-worker BTD fleet whose
    peers never answer (the other end of the socketpair is ours)."""
    ours, theirs = socket.socketpair()
    cfg = {"pid": 1, "slots": 3, "fault_mode": True,
           "run_dir": str(tmp_path)}
    job = {"app": {"kind": "synthetic", "units": 5000},
           "run": {"protocol": "BTD", "n": 3, "quantum": 16, "seed": 5}}
    r = Reactor(cfg, FramedConnection(theirs))
    app, _label = build_app(job["app"])
    metrics = MetricsRegistry()
    r.proc = worker_factory(build_run_config(job), app)(1)
    r.env = LiveEnv(1, 3, r.mesh, fault_mode=True, run_dir=str(tmp_path),
                    metrics=metrics)
    r.env.attach(r.proc)
    r.open_spool(str(tmp_path), metrics)
    yield r
    r.conn.close()
    r.mesh.close()
    r.sel.close()
    ours.close()


def flush(r: Reactor) -> int:
    """One flush; returns how many commits it made (0 or 1), checked
    against the skip counter and the file on disk."""
    commits, skipped, _commit_s, size = r._spool_metrics
    before = (commits.value, skipped.value, size.total)
    r.flush()
    made = commits.value - before[0]
    assert made + (skipped.value - before[1]) == 1
    if made:
        assert size.total - before[2] == os.path.getsize(r.spool)
    return made


def test_commit_rule_turn_by_turn(reactor, monkeypatch):
    r = reactor
    assert not os.path.exists(r.spool)
    assert flush(r) == 1            # first flush of a job: before start()
    assert read_spool(r.spool)["processed"] == 0
    r.proc.start()                  # builds the channel
    ch = r.proc._reliable
    assert flush(r) == 0            # nothing changed
    assert r.env.queue.fire_due() > 0    # idle: asks its parent for work
    assert ch.pending_to(0)
    assert flush(r) == 1            # the request is a pending send
    assert flush(r) == 0

    ch.send(0, "PING", 1, 8)        # a new pending transfer
    assert flush(r) == 1
    assert flush(r) == 0
    assert ch.register(2, 0)        # a new receipt
    assert flush(r) == 1
    assert read_spool(r.spool)["recv_log"] == {"2": [0]}
    assert not ch.register(2, 0)    # a duplicate is not a new receipt
    assert flush(r) == 0
    ch.on_ack(ch.pending_to(0)[0].seq)   # an ack only shrinks out_pending
    assert flush(r) == 0

    r.env.mark_dead(2)              # a dead peer's transfers settled
    assert flush(r) == 1
    assert flush(r) == 0
    r.proc.crash_dropped.append(SyntheticWork(7))
    assert flush(r) == 1
    assert read_spool(r.spool)["crash_dropped"] == [{"__syn": 7}]
    assert flush(r) == 0

    # progress alone: only once the last commit is IDLE_TICK_S old
    r.proc.stats.work_units += 64
    assert flush(r) == 0
    assert read_spool(r.spool)["processed"] == 0
    monkeypatch.setattr(worker_mod, "IDLE_TICK_S", 0.0)
    assert flush(r) == 1
    assert read_spool(r.spool)["processed"] == 64
    assert flush(r) == 0            # no progress since: age alone is not


# -- (b) write-ahead order over a whole run ----------------------------------

def test_no_frame_leaves_before_the_commit_that_explains_it(
        tmp_path, monkeypatch):
    """Two fault-mode reactors run a UTS job over their mesh.  Every
    ``write_spool`` and every flush of a mesh connection is recorded in
    order; a frame counts as leaving at the first flush after it was
    queued.  Then: every ``RMSG(WORK)`` that left was already in a
    commit's ``out_pending``, every ``RACK`` in a commit's ``recv_log``.
    Sequence numbers restart with each job, so the books are kept per
    (pid, epoch): the epoch rides every frame, and a commit belongs to the
    job its reactor is running."""
    lock = threading.Lock()
    pending = {}     # (pid, epoch) -> {(dst, seq)} over its commits so far
    logged = {}      # (pid, epoch) -> {(src, seq)} in its latest commit
    queued = {}      # id(conn) -> frames queued since that conn's last flush
    reactors = []    # the harness's, once it is up
    checked = {"WORK": 0, "RACK": 0, "commits": 0}
    violations = []

    real_write = worker_mod.write_spool
    real_send, real_flush = (FramedConnection.send_frame,
                             FramedConnection.flush)

    def write_spool(path, doc):
        with lock:
            checked["commits"] += 1
            key = (doc["pid"], reactors[doc["pid"]].epoch)
            pending.setdefault(key, set()).update(
                (dst, seq) for dst, seq, kind, _p in doc["out_pending"]
                if kind == "WORK")
            logged[key] = {(int(src), seq)
                           for src, seqs in doc["recv_log"].items()
                           for seq in seqs}
        return real_write(path, doc)

    def send_frame(conn, frame):
        with lock:
            queued.setdefault(id(conn), []).append(frame)
        return real_send(conn, frame)

    def flush(conn):
        with lock:
            # the reactor whose mesh holds the connection is the sender
            pid = next((r.pid for r in reactors if conn in r.mesh.conns),
                       None)
            for frame in queued.pop(id(conn), ()):
                if pid is None or frame.get("t") != "msg":
                    continue
                key, dst = (pid, frame["j"]), frame["dst"]
                if frame["kind"] == "RMSG":
                    seq, kind, _payload = frame["p"]["__t"]
                    if kind == "WORK":
                        checked["WORK"] += 1
                        if (dst, seq) not in pending.get(key, ()):
                            violations.append(("WORK", key, dst, seq))
                elif frame["kind"] == "RACK":
                    checked["RACK"] += 1
                    if (dst, frame["p"]) not in logged.get(key, ()):
                        violations.append(("RACK", key, dst, frame["p"]))
        return real_flush(conn)

    monkeypatch.setattr(worker_mod, "write_spool", write_spool)
    monkeypatch.setattr(FramedConnection, "send_frame", send_frame)
    monkeypatch.setattr(FramedConnection, "flush", flush)

    # Both reactors and the test's fleet share one interpreter lock. A
    # reliable message and its ack wait for it at every hop, at the
    # default 5 ms a hand-off close to the 20 ms ack timeout whenever the
    # root is computing: its breaker opens on pid 1, no WORK is offered
    # until the probe, and a root that clears the tree in 0.25 s is done
    # first. Hand over faster than the ack timeout instead.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    h = Harness(str(tmp_path), fault_mode=True)
    try:
        reactors.extend(h.reactors)
        h.init()
        # a thread that starts late can leave the root to finish the tree
        # alone; a job that moved no work checks nothing, so go again
        for epoch in (1, 2, 3):
            units = h.run_job(epoch, {"kind": "uts", "preset": "bin_small"})
            assert units == SMALL_NODES
            if checked["WORK"] and checked["RACK"]:
                break
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
    finally:
        sys.setswitchinterval(switch_interval)
        h.close()
    assert h.codes == {0: 0, 1: 0}
    assert violations == []
    # the run did exercise both directions, and the rule did skip turns
    assert checked["WORK"] > 0 and checked["RACK"] > 0
    assert checked["commits"] > 0
    assert sum(r["metrics"]["spool.skipped"]["value"]
               for r in h.reports.values()) > 0


# -- (c) kill -9 early, in the middle, late ----------------------------------

@pytest.mark.parametrize("n", [2, 4], ids=["p2p-2", "p2p-4"])   # plane-n
@pytest.mark.parametrize("after_units", [50, 2000, 9000])
def test_sigkill_sweep_conserves_exactly(tmp_path, after_units, n):
    victim = n - 1
    live = run_live(LiveConfig(
        protocol="BTD", n=n, app={"kind": "uts", "preset": "bin_small"},
        seed=100 + after_units % 97 + n, fault_tolerance=True,
        timeout_s=90.0, run_dir=str(tmp_path / "run"),
        kills=({"pid": victim, "after_units": after_units},)))
    assert live.killed == (victim,)
    assert live.conserved == SMALL_NODES
    # the trigger reads the victim's spool, which progress alone refreshes
    # only every IDLE_TICK_S: it fired at or after the threshold
    assert live.spools[victim]["processed"] >= after_units
