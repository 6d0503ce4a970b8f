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
"""

import os
import shutil
import socket
import threading
import time

import pytest

import repro
from repro.runtime.codec import pack_frame
from repro.runtime.fleet import Fleet, Worker, spawn_worker
from repro.runtime.supervisor import LiveConfig, _LiveRun, run_live
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.fleet import Lane
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
        _wait_for(lambda: os.path.exists(
            os.path.join(run_dir, "spool_0.json")), "the job to start")
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


# -- the path a spawned worker starts with -----------------------------------

@pytest.mark.parametrize("inherited", [None, "/some/where/else"],
                         ids=["unset", "set"])
def test_spawned_child_path_is_this_checkout_first_and_has_no_empty_entry(
        inherited, tmp_path, monkeypatch):
    """An empty ``PYTHONPATH`` entry is the working directory: a child
    spawned with the variable unset must not get one appended."""
    (tmp_path / "echo_path.py").write_text(
        "import os\nprint(os.environ['PYTHONPATH'])\n")
    monkeypatch.chdir(tmp_path)   # where ``python -m`` finds the module
    if inherited is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", inherited)
    log = tmp_path / "child.log"
    assert spawn_worker("echo_path", {}, str(log)).wait(timeout=60) == 0
    parts = log.read_text().strip().split(os.pathsep)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    assert parts == [src] + ([inherited] if inherited else [])
