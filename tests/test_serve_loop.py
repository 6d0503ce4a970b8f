"""The serve daemon's one loop: parked requests, bounded request lines and
the lane bulkhead, against real daemons in-process.

The daemon serves every connection and steps every lane from one thread,
so what these tests pin is what a threaded daemon got for free: a request
that waits (``wait``, ``restart``) must not hold up anybody else's, a bad
line must cost only its own connection, and a wedged host must stall only
its own lane.
"""

import os
import select
import shutil
import signal
import threading
import time

import pytest

from repro.runtime.fleet import GRACE_S
from repro.serve.client import ServeClient, ServeClientError, connect_address
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.protocol import MAX_LINE, encode_line, read_line

SYN = {"kind": "synthetic", "units": 4000}
SLOW = {"kind": "synthetic", "units": 50_000}
ONE_UNIT = {"quantum": 1}        # a slice a unit: SLOW takes about a second


def _until(cond, what: str, timeout: float = 60.0) -> None:
    end = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.01)


def _idle(d: ServeDaemon) -> bool:
    return all(ln.state == "idle" and all(w["ospid"] for w in ln.snapshot()
                                          ["workers"]) for ln in d._lanes)


def _started(lanes: int) -> ServeDaemon:
    d = ServeDaemon(ServeConfig(lanes=lanes, n=2, job_timeout_s=60.0))
    d.start()
    _until(lambda: _idle(d), "the lanes to boot")
    return d


def _stopped(d: ServeDaemon) -> None:
    d.stop()
    shutil.rmtree(d.run_dir, ignore_errors=True)


@pytest.fixture(scope="module")
def daemon():
    d = _started(lanes=1)
    yield d
    _stopped(d)


def _raw(d: ServeDaemon):
    """A bare connection: its socket and the file its replies are read from."""
    sock = connect_address(d.address, timeout=30.0)
    return sock, sock.makefile("rb")


# -- request lines -------------------------------------------------------------

def test_deep_nesting_is_a_bad_request_not_a_dropped_connection(daemon):
    sock, rfile = _raw(daemon)
    with sock, rfile:
        sock.sendall(b"[" * 100_000 + b"\n")
        resp = read_line(rfile)
        assert resp["ok"] is False and resp["error"] == "bad-request"
        sock.sendall(encode_line({"op": "ping"}))
        assert read_line(rfile)["pong"] is True


def test_a_line_over_the_bound_is_refused_and_hung_up_on(daemon):
    sock, rfile = _raw(daemon)
    with sock, rfile:
        sock.sendall(b" " * (MAX_LINE + 1))        # no newline in sight
        resp = read_line(rfile)
        assert resp["ok"] is False and resp["error"] == "bad-request"
        assert str(MAX_LINE) in resp["detail"]
        assert rfile.readline() == b""             # closed
    with ServeClient(daemon.address) as c:
        assert c.ping()["pong"] is True


# -- parked requests -----------------------------------------------------------

def test_a_parked_wait_is_answered_once_when_the_job_ends(daemon):
    sock, rfile = _raw(daemon)
    with sock, rfile, ServeClient(daemon.address) as watcher:
        job = watcher.submit(SLOW, run=ONE_UNIT)["job_id"]
        sock.sendall(encode_line({"op": "wait", "job_id": job,
                                  "timeout_s": 60.0}))
        answered = 0        # another connection's requests, meanwhile
        while watcher.status(job)["state"] != "done":
            answered += 1
            time.sleep(0.005)
        assert answered >= 3
        resp = read_line(rfile)
        assert resp["ok"] is True and resp["job_id"] == job
        assert resp["state"] == "done"
        assert resp["total_units"] == SLOW["units"]
        # answered once: the next line is the next request's
        sock.sendall(encode_line({"op": "ping"}))
        assert read_line(rfile)["pong"] is True


def test_a_wait_that_times_out_returns_the_state_it_saw(daemon):
    with ServeClient(daemon.address) as c:
        job = c.submit(SLOW, run=ONE_UNIT)["job_id"]
        resp = c.request("wait", job_id=job, timeout_s=0.05)
        assert resp["ok"] is True and resp["state"] in ("queued", "running")
        with pytest.raises(ServeClientError, match="not terminal"):
            c.wait(job, timeout=0.05)
        assert c.wait(job, timeout=60.0)["state"] == "done"


# -- one loop, whatever is attached --------------------------------------------

@pytest.mark.parametrize("lanes", [2, 3])
def test_a_serving_daemon_adds_one_thread(lanes):
    before = threading.active_count()
    d = _started(lanes)
    clients, parked = [], None
    try:
        clients = [ServeClient(d.address).connect() for _ in range(4)]
        job = clients[0].submit(SLOW, run=ONE_UNIT)["job_id"]
        parked, rfile = _raw(d)
        rfile.close()
        parked.sendall(encode_line({"op": "wait", "job_id": job}))
        for c in clients:
            assert c.ping()["pong"] is True
        assert clients[1].status(job)["state"] in ("queued", "running")
        assert not select.select([parked], [], [], 0)[0]    # still parked
        assert threading.active_count() <= before + 1
    finally:
        for c in clients:
            c.close()
        if parked is not None:
            parked.close()
        _stopped(d)
    assert threading.active_count() <= before


def test_a_wedged_host_stalls_only_its_own_lane():
    """A stopped lane-0 host ignores SIGTERM, so the restart's reap of
    lane 0 takes :data:`GRACE_S`; a job on lane 1 runs meanwhile."""
    d = _started(lanes=2)
    try:
        sock, rfile = _raw(d)
        with sock, rfile, ServeClient(d.address) as c:
            wedged = c.fleet()["lanes"][0]["workers"][0]["ospid"]
            os.kill(wedged, signal.SIGSTOP)
            t0 = time.monotonic()
            sock.sendall(encode_line({"op": "restart"}))
            _until(lambda: c.fleet()["lanes"][0]["state"] == "recycling",
                   "lane 0 to recycle")
            st = c.wait(c.submit(SYN)["job_id"], timeout=60.0)
            assert st["state"] == "done" and st["lane"] == 1
            assert st["exec_s"] < GRACE_S
            assert time.monotonic() - t0 < GRACE_S   # nothing waited it out
            assert c.fleet()["lanes"][0]["state"] == "recycling"
            resp = read_line(rfile)
            assert resp["ok"] is True, resp
            assert resp["restarted"] == [0, 1]
            assert wedged not in [w["ospid"] for w in
                                  c.fleet()["lanes"][0]["workers"]]
    finally:
        _stopped(d)
