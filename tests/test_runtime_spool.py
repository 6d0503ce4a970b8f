"""The write-ahead spool: its commit rule (``Reactor.flush``) and its record.

A fault-mode worker commits its spool only when the state that explains
outgoing bytes changed since the last commit (docs/runtime.md, "The commit
rule").  Four angles, and the turn the rule is applied once per:

* the rule itself, turn by turn, on one in-process reactor;
* the turn rule on the same reactor: one compute slice per turn, after
  every frame pumped and every timer due, and one commit for all of it;
* write-ahead order as a property of a whole run: two fault-mode reactors
  on threads, every commit and every flush recorded in order;
* ``kill -9`` at early / middle / late points of a real fleet run, and
  one that lands after its victim's report: the four-place conservation
  identity stays exact;
* the record itself: a torn or garbled newest slot reads as the commit
  before it, a reused path never shows an earlier job's slot, every kind
  of pool and payload reads back as written, and a finished job holds no
  slot file open.
"""

import os
import socket
import sys
import threading

import numpy as np
import pytest

import repro.runtime.worker as worker_mod
from repro.apps.synthetic import SyntheticWork
from repro.bnb.work import BnBWork
from repro.experiments.runner import RunConfig, worker_factory
from repro.obs.registry import MetricsRegistry
from repro.core.reliable import RMSG
from repro.runtime.codec import (message_to_frame, pack_frame,
                                 stats_to_wire, to_wire)
from repro.runtime.env import LiveEnv
from repro.runtime.fleet import Worker, live_run_config
from repro.runtime.spool import (Spool, read_spool, slot_paths,
                                 spool_path, write_spool)
from repro.runtime.supervisor import LiveConfig, _LiveRun, run_live
from repro.runtime.transport import FramedConnection, connect_endpoint
from repro.sim.messages import sized
from repro.sim.stats import RunStats
from repro.runtime.worker import Reactor, build_app
from repro.uts.params import PRESETS
from repro.uts.work import UTSWork

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
    r.spool.close()
    r.conn.close()
    r.mesh.close()
    r.sel.close()
    ours.close()


def flush(r: Reactor) -> int:
    """One flush; returns how many commits it made (0 or 1), checked
    against the skip counter and the record on disk (commit ``k`` of a
    job is slot ``k % 2``, and a slot file is exactly its record)."""
    commits, skipped, _commit_s, size = r._spool_metrics
    before = (commits.value, skipped.value, size.total)
    r.flush()
    made = commits.value - before[0]
    assert made + (skipped.value - before[1]) == 1
    if made:
        slot = slot_paths(r.spool)[commits.value % 2]
        assert size.total - before[2] == os.path.getsize(slot)
    return made


def test_commit_rule_turn_by_turn(reactor, monkeypatch):
    r = reactor
    assert read_spool(r.spool) is None
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

    # progress alone: at once past a planned kill's threshold (and the
    # owner hears of it, after the commit), else only once the last commit
    # is IDLE_TICK_S old
    told = []
    monkeypatch.setattr(r.conn, "send_frame", told.append)
    r.cfg["kill_units"] = 100
    r.proc.stats.work_units += 64
    assert flush(r) == 0
    assert read_spool(r.spool)["processed"] == 0 and told == []
    r.proc.stats.work_units += 64
    assert flush(r) == 1            # 128 >= 100
    assert read_spool(r.spool)["processed"] == 128
    assert told == [{"t": "passed", "units": 128}]
    r.proc.stats.work_units += 64
    assert flush(r) == 0            # passed once
    assert len(told) == 1
    monkeypatch.setattr(worker_mod, "IDLE_TICK_S", 0.0)
    assert flush(r) == 1
    assert read_spool(r.spool)["processed"] == 192
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


# -- (c) kill -9 early, in the middle, late, after the report ----------------

class _Process:
    """A member "process" the owner never sees exit: only its connection
    tells.  It exits cleanly when the owner terminates it."""

    exitcode = None

    def terminate(self) -> None:
        self.exitcode = 0

    def join(self) -> None:
        pass

    def close(self) -> None:
        pass


def test_a_kill_after_the_victim_reported_counts_its_units_once(tmp_path):
    """The owner's fault schedule killed pid 1, but its ``done`` was on the
    wire already: one pump reads the report and then the EOF.  The report
    is pid 1's account of the job; its spool stays for the post-mortem
    but does not enter the identity a second time."""
    units = 1000
    run_dir = str(tmp_path)
    app = {"kind": "synthetic", "units": units}
    run = _LiveRun(LiveConfig(n=2, app=app, fault_tolerance=True,
                              run_dir=run_dir), run_dir)
    fleet = run.fleet
    fleet.members = [Worker(pid, _Process()) for pid in range(2)]
    far = []
    try:
        for pid in range(2):
            ours, theirs = socket.socketpair()
            fleet.adopt(ours)
            theirs.sendall(pack_frame({"t": "hello", "pid": pid, "ospid": 0,
                                       "peer": {"kind": "tcp", "port": 1}}))
            far.append(theirs)
        while any(m.conn is None for m in fleet.members):
            fleet.pump(0.02)

        def done(pid: int, processed: int) -> bytes:
            row = RunStats.create(2).per_process[pid]
            row.work_units = processed
            return pack_frame({"t": "done", "pid": pid, "epoch": 1,
                               "stats": stats_to_wire(row), "recv_log": {},
                               "crash_dropped": []})

        # pid 1 processed 400 units, committed them and reported; then the
        # kill landed: its report and its EOF arrive together
        with Spool(spool_path(run_dir, 1)) as spool:
            write_spool(spool, {
                "pid": 1, "processed": 400, "pool": to_wire(SyntheticWork(0)),
                "out_pending": [], "recv_log": {}, "crash_dropped": []})
        run.killed[1] = 0.0
        far[0].sendall(done(0, units - 400))
        far[1].sendall(done(1, 400))
        far[1].close()
        assert fleet.run_job({"t": "job", "id": "live", "epoch": 1,
                              "app": app, "timeout_s": 10.0},
                             repair=True) is None
        assert [m.state for m in fleet.members] == ["done", "done"]
        fleet.stop()   # as run_live does: reap, then assemble
        live = run.result(wall_s=1.0)
        assert live.killed == (1,)
        assert live.spools[1]["processed"] == 400    # the post-mortem
        assert live.result.crashes == 0
        assert live.conserved == live.result.total_units == units
    finally:
        fleet.close()
        far[0].close()


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
    # the victim commits its spool past the threshold, then says so: the
    # kill fired at or after it
    assert live.spools[victim]["processed"] >= after_units


# -- (d) the record: torn, stale, round trip, closed -------------------------

def _uts(units: int):
    """A ``bin_tiny`` pool after ``units`` expansions (0: the root)."""
    app, _label = build_app({"kind": "uts", "preset": "bin_tiny"})
    work = app.initial_work()
    if units:
        work.process(units)
    return work


def _stack(n: int) -> UTSWork:
    """A UTS pool of ``n`` made-up entries (states above 2^53)."""
    return UTSWork(_uts(0).params,
                   states=(np.arange(n, dtype=np.uint64) << np.uint64(60)),
                   depths=np.arange(n, dtype=np.int32))


def _doc(processed: int) -> dict:
    """A small snapshot whose pool and pending WORK are UTS stacks."""
    return {"pid": 1, "processed": processed,
            "pool": to_wire(_stack(processed)),
            "out_pending": [[0, processed, "WORK",
                             to_wire((_stack(2), ""))]],
            "recv_log": {"0": list(range(processed))}, "crash_dropped": []}


def test_a_torn_or_garbled_newest_slot_reads_as_the_commit_before(tmp_path):
    """Three commits: slot 1, slot 0, slot 1.  The third is cut short,
    written over the first's bytes up to some offset, or has one byte
    flipped, at every offset of its record: the reader sees the second."""
    path = spool_path(str(tmp_path), 1)
    docs = [_doc(k) for k in (1, 2, 3)]
    newest = slot_paths(path)[1]
    with Spool(path) as spool:
        write_spool(spool, _doc(1))
        write_spool(spool, _doc(2))
        with open(newest, "rb") as fh:
            first = fh.read()
        write_spool(spool, _doc(3))
    with open(newest, "rb") as fh:
        third = fh.read()
    assert read_spool(path) == docs[2]
    assert len(third) < 2000 and third != first

    def reads(data: bytes) -> dict:
        with open(newest, "wb") as fh:
            fh.write(data)
        return read_spool(path)

    for i in range(len(third)):
        assert reads(third[:i]) == docs[1], ("cut", i)
        assert reads(third[:i] + first[i:]) == docs[1], ("torn", i)
        flipped = bytes([third[i] ^ 0xFF])
        assert reads(third[:i] + flipped + third[i + 1:]) == docs[1], (
            "garbled", i)
    assert reads(third) == docs[2]


def test_no_valid_slot_reads_as_no_spool(tmp_path):
    path = spool_path(str(tmp_path), 1)
    assert read_spool(path) is None            # never opened
    with Spool(path) as spool:
        assert read_spool(path) is None        # opened, nothing committed
        write_spool(spool, _doc(1))
        write_spool(spool, _doc(2))
    for slot in slot_paths(path):              # both garbled
        with open(slot, "r+b") as fh:
            fh.write(b"SPL2")
    assert read_spool(path) is None


def test_a_reused_spool_path_never_shows_an_earlier_job(tmp_path):
    """Job 1 commits four times (its last in slot 0, sequence number 4);
    job 2, on the same run dir and pid, opens the spool and commits once
    (sequence number 1, slot 1).  From the open on, the reader sees
    nothing of job 1."""
    path = spool_path(str(tmp_path), 1)
    with Spool(path) as spool:
        for k in range(1, 5):
            write_spool(spool, _doc(k))
    assert read_spool(path)["processed"] == 4
    job2 = {**_doc(0), "pool": to_wire(SyntheticWork(9))}
    with Spool(path) as spool:
        assert read_spool(path) is None
        write_spool(spool, job2)
        assert read_spool(path) == job2


def test_every_pool_and_payload_reads_back_as_written(tmp_path):
    """The to_wire form goes in and comes out, for every pool and
    payload kind."""
    bnb = BnBWork.full_tree(6)
    bnb_piece = bnb.split(0.5)
    empty = UTSWork.empty(_uts(0).params)
    pools = {"uts": _uts(40), "uts-root": _uts(0), "uts-empty": empty,
             "bnb": bnb, "synthetic": SyntheticWork(77)}
    pending = [[0, 3, "WORK", (_uts(10).split(0.5), "")],
               [2, 4, "WORK", (bnb_piece, "")],
               [0, 5, "REQ", (1, frozenset({2, 3}))]]
    dropped = [_uts(7), SyntheticWork(5), empty]
    with Spool(spool_path(str(tmp_path), 1)) as spool:
        for name, pool in pools.items():
            doc = {"pid": 1, "processed": 123,
                   "pool": to_wire(pool),
                   "out_pending": [[d, q, k, to_wire(p)]
                                   for d, q, k, p in pending],
                   "recv_log": {"0": [0, 1, 2], "2": [7]},
                   "crash_dropped": [to_wire(p) for p in dropped]}
            write_spool(spool, doc)
            assert read_spool(spool) == doc, name


def _open_spool_files(run_dir: str) -> list:
    spools = {p for pid in range(N)
              for p in slot_paths(spool_path(run_dir, pid))}
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:     # closed since the listing
            continue
        if target in spools:
            found.append(target)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("fault_mode", [False, True], ids=["plain", "fault"])
def test_a_finished_job_holds_no_spool_file_open(tmp_path, fault_mode):
    """Two in-process reactors run a UTS job to ``job_end``: once both
    have left the job, no descriptor of this process points at a slot
    file; in fault mode the spools are there and were committed."""
    run_dir = str(tmp_path)
    h = Harness(run_dir, fault_mode=fault_mode)
    try:
        h.go()
        assert h.run_job(1, {"kind": "uts", "preset": "bin_tiny"}) == (
            PRESETS["bin_tiny"].nodes)
        h.pump_until(lambda: all(r.env is None for r in h.reactors))
        assert _open_spool_files(run_dir) == []
        for pid in range(N):
            doc = read_spool(spool_path(run_dir, pid))
            assert (doc is not None) == fault_mode
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
    finally:
        h.close()
    assert h.codes == {0: 0, 1: 0}
