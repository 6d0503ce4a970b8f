"""The write-ahead spool's commit rule (``Reactor.flush``).

A fault-mode worker commits its spool only when the state that explains
outgoing bytes changed since the last commit (docs/runtime.md, "The commit
rule").  Three angles, and the turn the rule is applied once per:

* the rule itself, turn by turn, on one in-process reactor;
* the turn rule on the same reactor: one compute slice per turn, after
  every frame pumped and every timer due, and one commit for all of it;
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
from repro.experiments.runner import RunConfig, worker_factory
from repro.obs.registry import MetricsRegistry
from repro.core.reliable import RMSG
from repro.runtime.codec import message_to_frame, pack_frame
from repro.runtime.env import LiveEnv
from repro.runtime.fleet import live_run_config
from repro.runtime.spool import read_spool
from repro.runtime.supervisor import LiveConfig, run_live
from repro.runtime.transport import FramedConnection, connect_endpoint
from repro.sim.messages import sized
from repro.runtime.worker import Reactor, build_app
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
           "run": live_run_config(protocol="BTD", n=3, quantum=16,
                                  seed=5).to_wire()}
    r = Reactor(cfg, FramedConnection(theirs))
    app, _label = build_app(job["app"])
    metrics = MetricsRegistry()
    r.proc = worker_factory(RunConfig.from_wire(job["run"]), app)(1)
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


# -- the turn rule ---------------------------------------------------------

def test_a_turn_computes_one_slice_after_every_frame_and_due_timer(reactor):
    """Parent 0 answers pid 1's work request with k WORK pieces, and the
    request's ack timer falls due: the next turn handles all k (k RACKs
    leave), retransmits the request, computes exactly one slice of the
    pool the pieces built, and its flush commits once."""
    r, k = reactor, 5
    r.mesh.add_member(0, None)
    r.proc.start()
    assert not r.turn()             # the kick: idle, asks parent 0
    assert flush(r) == 1
    [request] = r.proc._reliable.pending_to(0)
    peer = connect_endpoint(r.peer_endpoint)
    try:
        r.mesh.accept()
        peer.sendall(pack_frame({"t": "ph", "pid": 0}) + b"".join(
            pack_frame(message_to_frame(sized(
                RMSG, 0, 1, (seq, "WORK", (SyntheticWork(100), "")), 16)))
            for seq in range(k)))
        r.env.queue._t0 -= 1.0      # the clock jumps: the ack timer is due
        stats, quanta = r.proc.stats, r.env.metrics.counter("compute.quanta")
        frames0 = r.mesh.link_frames.get(0, 0)

        assert not r.turn()
        assert stats.work_msgs_received == k
        assert stats.retransmits == 1 and request.attempts == 1
        assert r.mesh.link_frames[0] - frames0 == k + 1   # RACKs + request
        assert quanta.value == 1 and stats.work_units == 16
        assert flush(r) == 1

        # the pool is not empty: the next slice is parked, and each turn
        # computes exactly one
        for turn in (2, 3):
            assert r.env.slice_parked
            assert not r.turn()
            assert quanta.value == turn and stats.work_units == 16 * turn
        assert r.env.metrics.counter("reactor.turns").value == 4
    finally:
        peer.close()


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
        h.go()
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
