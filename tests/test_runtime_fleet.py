"""Hello identification is unchecked outside input — for both fleet owners.

A fleet's listener is a loopback (or run-directory) socket any local
process can dial.  Whatever such a stranger says while a job is running —
garbage, a ``hello`` for a pid that does not exist, a second ``hello`` for
a pid that is already registered — the owner closes and forgets that
connection, the first registration stands, and the job finishes with the
right answer.  One scenario, run against the one-shot supervisor and
against a serve lane: underneath both are the same
:class:`repro.runtime.fleet.Fleet`.

The same goes for what a registered member says: its connection is for
control frames.  A ``msg`` on it is dropped by either owner — workers
exchange those among themselves (``test_runtime_reactor`` has the other
direction: a reactor passes over a ``msg`` its owner sends).

Members are forks of their owner, so the last tests check what a fork
must not keep of it: descriptors, children left to reap after a run, and
the owner's standard streams.
"""

import fcntl
import json
import multiprocessing.util as mp_util
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import termios
import threading
import time

import pytest

import repro
from repro.runtime.codec import pack_frame
from repro.runtime.fleet import (Fleet, Worker, live_run_config, log_tail,
                                 spawn_worker)
from repro.runtime.spool import read_spool, spool_path
from repro.runtime.supervisor import LiveConfig, _LiveRun, run_live
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.fleet import Lane
from repro.serve.loadgen import POISON_SPEC
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree

from test_runtime_reactor import _Exited, work_frame

PRESET = "bin_small"      # long enough for the strangers to arrive mid-job

BAD_HELLOS = {
    "not a frame stream": b"\x00\x00\x00\x00",
    "first frame is not a hello": pack_frame({"t": "done", "pid": 0}),
    "pid is not an integer": pack_frame({"t": "hello", "pid": "0"}),
    "pid is a boolean": pack_frame({"t": "hello", "pid": True}),
    "pid out of range": pack_frame({"t": "hello", "pid": 99}),
    "pid negative": pack_frame({"t": "hello", "pid": -1}),
    "duplicate of a registered pid": pack_frame({"t": "hello", "pid": 0}),
}


def _wait_for(cond, what: str, timeout: float = 60.0) -> None:
    end = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.01)


def _strangers(sock_path: str) -> dict:
    """Dial the fleet once per bad hello; returns, per case, whether the
    owner hung up on it (EOF) within a few seconds."""
    hung_up = {}
    for case, payload in BAD_HELLOS.items():
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10.0)
            s.connect(sock_path)
            s.sendall(payload)
            try:
                hung_up[case] = s.recv(4096) == b""
            except OSError:      # timeout: still open; reset: closed on us
                hung_up[case] = False
    return hung_up


def _run_one_shot(tmp_path) -> tuple:
    run_dir = str(tmp_path / "run")
    cfg = LiveConfig(protocol="BTD", n=2, seed=3, transport="unix",
                     app={"kind": "uts", "preset": PRESET},
                     fault_tolerance=True, run_dir=run_dir, timeout_s=90.0)
    hung_up = {}

    def stranger():
        # worker 0's first spool commit follows its go: by then every
        # pid is registered and the job is running
        _wait_for(lambda: read_spool(spool_path(run_dir, 0)) is not None,
                  "the job to start")
        hung_up.update(_strangers(os.path.join(run_dir, "fleet.sock")))

    thread = threading.Thread(target=stranger, daemon=True)
    thread.start()
    live = run_live(cfg)
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert live.conserved == live.result.total_units
    return live.result.total_units, hung_up


def _run_served(tmp_path) -> tuple:
    d = ServeDaemon(ServeConfig(lanes=1, n=2, transport="unix",
                                run_dir=str(tmp_path / "serve"),
                                job_timeout_s=90.0))
    d.start()
    try:
        lane = d._lanes[0]
        _wait_for(lambda: lane.state == "idle", "the lane to boot")
        before = [(h.ospid, h.conn) for h in lane._fleet.members]
        with ServeClient(d.address) as c:
            job = c.submit({"kind": "uts", "preset": PRESET})
            _wait_for(lambda: c.status(job["job_id"])["state"] != "queued",
                      "the job to start")
            hung_up = _strangers(os.path.join(lane.dir, "fleet.sock"))
            st = c.wait(job["job_id"], timeout=90.0)
        assert st["state"] == "done", st
        # nobody was replaced, nobody is still parked
        assert [(h.ospid, h.conn) for h in lane._fleet.members] == before
        assert lane._fleet.strays == []
        assert lane.restarts == 0
        return st["total_units"], hung_up
    finally:
        d.stop()
        shutil.rmtree(d.run_dir, ignore_errors=True)


@pytest.mark.parametrize("owner", [_run_one_shot, _run_served],
                         ids=["run_live", "lane"])
def test_bad_hellos_are_shown_the_door_and_the_job_completes(owner,
                                                              tmp_path):
    total_units, hung_up = owner(tmp_path)
    assert total_units == count_tree(PRESETS[PRESET].params).nodes
    assert hung_up == {case: True for case in BAD_HELLOS}


# -- a msg on a control connection -------------------------------------------

def _one_shot_owner(run_dir: str) -> tuple:
    run = _LiveRun(LiveConfig(n=2, run_dir=run_dir), run_dir)
    run.fleet.members = [Worker(pid, _Exited()) for pid in range(2)]
    run.fleet.epoch = 1                     # the job is out
    return run.fleet, run.fleet.reports


def _lane_owner(run_dir: str) -> tuple:
    lane = Lane(0, ServeConfig(n=2), run_dir, source=None)
    lane._fleet = Fleet(run_dir)            # as Lane._main wires it
    lane._fleet.members = [Worker(pid, _Exited()) for pid in range(2)]
    lane._fleet.epoch = 1                   # a job is out
    return lane._fleet, lane._fleet.reports


@pytest.mark.parametrize("owner", [_one_shot_owner, _lane_owner],
                         ids=["run_live", "lane"])
def test_msg_on_a_control_connection_goes_nowhere(owner, tmp_path):
    fleet, reports = owner(str(tmp_path))
    handed = []
    on_frame = fleet.on_frame
    fleet.on_frame = lambda m, f: (handed.append(f["t"]), on_frame(m, f))
    far_ends = []
    try:
        for pid in range(2):
            ours, theirs = socket.socketpair()
            fleet.adopt(ours)
            theirs.sendall(pack_frame(
                {"t": "hello", "pid": pid, "ospid": 0,
                 "peer": {"kind": "tcp", "host": "127.0.0.1", "port": 1}}))
            far_ends.append(theirs)

        def pump_until(cond, what: str) -> None:
            end = time.monotonic() + 10.0
            while not cond():
                assert time.monotonic() < end, f"timed out waiting for {what}"
                fleet.pump(0.02)

        pump_until(lambda: all(m.conn is not None for m in fleet.members),
                   "both hellos")
        # member 0: WORK for member 1 up the control connection, then
        # its report
        far_ends[0].sendall(pack_frame(work_frame(0, 1, 300, epoch=1))
                            + pack_frame({"t": "done", "pid": 0, "epoch": 1}))
        pump_until(lambda: 0 in reports, "the report")
        assert handed == ["done"]           # the owner never saw the msg
        far_ends[1].setblocking(False)
        with pytest.raises(BlockingIOError):     # nor did member 1
            far_ends[1].recv(1)
    finally:
        fleet.close()
        for sock in far_ends:
            sock.close()


# -- what a forked member inherits ------------------------------------------

def _socket_inodes(pid) -> set:
    """The inodes of every socket process ``pid`` holds."""
    inodes = set()
    fd_dir = f"/proc/{pid}/fd"
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:   # closed since the listing
            continue
        if target.startswith("socket:["):
            inodes.add(target)
    return inodes


def _fork_member(fleet: Fleet, pid: int, slots: int) -> Worker:
    log = os.path.join(fleet.run_dir, f"worker_{pid}.log")
    return Worker(pid, spawn_worker(
        {"pid": pid, "slots": slots, "endpoint": fleet.endpoint,
         "run_dir": fleet.run_dir}, log), log)


def _pump_until(fleet: Fleet, cond, what: str, timeout: float = 30.0):
    end = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        fleet.pump(0.02)


def test_a_forked_member_holds_none_of_its_owners_descriptors(tmp_path):
    """Members are forks of the owner: each closes what it inherited - the
    listener, the selector, the other members' control connections.  The
    joiner is forked after two members connected, so it inherited their
    connections too.  Nobody else holding an end, a killed member's
    connection reads EOF at the owner, and a member whose connection the
    owner drops reads EOF and exits."""
    fleet = Fleet(str(tmp_path))
    try:
        fleet.boot([_fork_member(fleet, pid, 3) for pid in range(2)], 60.0)
        joiner = _fork_member(fleet, 2, 3)
        fleet.members.append(joiner)
        _pump_until(fleet, lambda: joiner.conn is not None,
                    "the joiner's hello")
        owner = _socket_inodes("self")
        assert len(owner) >= 4     # the listener and three connections
        for m in fleet.members:
            assert m.ospid == m.popen.pid
            assert _socket_inodes(m.ospid) & owner == set(), m.pid
        first, second = fleet.members[0], fleet.members[1]
        first.popen.kill()
        _pump_until(fleet, lambda: first.conn.eof, "EOF of the killed member")
        fleet.drop(second)
        assert second.wait(10.0) == 1    # the owner vanished: exit 1
    finally:
        fleet.close()
    assert [m.poll() for m in fleet.members] == [-signal.SIGKILL, 1, 0]


#: Back-to-back one-shot runs in one fresh process, the way the benchmark
#: makes them: after each, no child is left to reap and every descriptor
#: the run opened is closed again.
BACK_TO_BACK = """
import json, os
from repro.runtime.supervisor import LiveConfig, run_live

def fds():
    return len(os.listdir("/proc/self/fd"))

def no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

uts = {"kind": "uts", "preset": "bin_large"}
runs = {
    "plain": LiveConfig("BTD", n=2, seed=1, app=uts),
    "ft-kill": LiveConfig("BTD", n=2, seed=2, app=uts, fault_tolerance=True,
                          kills=({"pid": 1, "after_units": 400},)),
    "join": LiveConfig("BTD", n=2, seed=3, app=uts, fault_tolerance=True,
                       joins=({"pid": 2, "after_s": 0.03},)),
}
start = fds()
out = {}
for name, cfg in runs.items():
    live = run_live(cfg)
    out[name] = {"fds": fds() - start, "no_children": no_children(),
                 "killed": list(live.killed), "joined": list(live.joined),
                 "units": live.conserved or live.result.total_units}
print(json.dumps(out))
"""


def test_back_to_back_runs_leave_no_child_and_no_descriptor():
    """Forked workers carry their caller's command line, so nothing but
    the caller can tell they outlived a run: it must reap every one and
    close every sentinel, listener and connection - also after a kill and
    after a join."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", BACK_TO_BACK],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout.strip().splitlines()[-1])
    nodes = count_tree(PRESETS["bin_large"].params).nodes
    for name, run in runs.items():
        assert run["fds"] == 0, (name, run)
        assert run["no_children"], (name, run)
        assert run["units"] == nodes, (name, run)
    assert runs["ft-kill"]["killed"] == [1]
    assert runs["join"]["joined"] == [2]


def test_a_forked_child_keeps_its_own_stdio(tmp_path, monkeypatch):
    """Lanes fork from lane threads, so another owner thread may be inside
    ``sys.stderr`` at that instant - here a writer stuck on a full pipe,
    holding the stream's lock.  ``multiprocessing`` flushes the owner's
    streams just before it forks; the writer wedges right after that
    flush.  A child whose job raises must still write its traceback into
    its own log, report the error and exit."""
    r, w = os.pipe()
    stuck = open(w, "w")
    monkeypatch.setattr(sys, "stderr", stuck)

    def write():
        stuck.write("x" * (1 << 20))
        stuck.flush()

    writer = threading.Thread(target=write, daemon=True)
    owner = os.getpid()
    capacity = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ)
    flush = mp_util._flush_std_streams

    def flush_then_wedge():
        flush()
        if os.getpid() == owner and not writer.is_alive():
            writer.start()
            end = time.monotonic() + 10.0
            while (struct.unpack("i", fcntl.ioctl(
                    r, termios.FIONREAD, b"\0" * 4))[0] < capacity):
                assert time.monotonic() < end, "the writer never wedged"
                time.sleep(0.001)

    monkeypatch.setattr(mp_util, "_flush_std_streams", flush_then_wedge)
    fleet = Fleet(str(tmp_path))
    try:
        member = _fork_member(fleet, 0, 1)
        assert writer.is_alive()           # forked with the lock held
        fleet.boot([member], 60.0)
        failure = fleet.run_job(
            {"t": "job", "id": "poisoned", "epoch": 1, "app": POISON_SPEC,
             "run": live_run_config(protocol="BTD", n=1).to_wire(),
             "timeout_s": 30.0})
    finally:
        fleet.close()
        os.set_blocking(r, False)
        while writer.is_alive():           # unwedge the owner's writer
            try:
                os.read(r, 1 << 16)
            except BlockingIOError:
                time.sleep(0.001)
        stuck.close()
        os.close(r)
    assert failure is not None and "__poisoned__" in failure[0]
    assert "Traceback" in log_tail(member.log)
    assert member.poll() == 0
