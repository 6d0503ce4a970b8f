"""The worker reactor and the fleet, in one process.

``Reactor`` takes an already-connected ``FramedConnection`` (only
``worker.main`` dials, installs signal handlers and exits the process), so
two reactors can run on threads against a ``Fleet`` the test pumps itself
over ``socket.socketpair()`` — no subprocess.  The same reactors run two
jobs back to back, which is the serve lifecycle: ``hello``, ``init``,
``job`` (epoch 1), ``job_end``, ``job`` (epoch 2), ``job_end``,
``shutdown``.
"""

import socket
import threading
import time

from repro.apps.synthetic import SyntheticWork
from repro.runtime.codec import message_to_frame
from repro.runtime.fleet import Fleet, Member, assemble
from repro.sim.messages import sized
from repro.runtime.transport import FramedConnection
from repro.runtime.worker import Reactor

N = 2
UNITS = 2000


def synthetic(units: int) -> dict:
    return {"kind": "synthetic", "units": units}


class _Exited:
    """What ``Fleet.stop`` needs from a member whose "process" is a
    thread: it reports itself gone, so nothing is signalled."""

    def poll(self) -> int:
        return 0


class Harness:
    """A star fleet of two in-process reactors (``cfg`` adds to each
    reactor's process configuration, e.g. ``fault_mode``)."""

    def __init__(self, run_dir: str, **cfg) -> None:
        self.fleet = Fleet(run_dir)
        self.fleet.members = [Member(pid, _Exited()) for pid in range(N)]
        self.fleet.on_frame = self.on_frame
        self.reports: dict = {}
        self.acks: list = []              # (pid, epoch) of "aborted" frames
        self.reactors, self.threads, self.codes = [], [], {}
        for pid in range(N):
            ours, theirs = socket.socketpair()
            self.fleet.adopt(ours)
            reactor = Reactor({"pid": pid, "slots": N, "run_dir": run_dir,
                               **cfg}, FramedConnection(theirs))
            thread = threading.Thread(target=self.run_reactor,
                                      args=(reactor,), daemon=True)
            self.reactors.append(reactor)
            self.threads.append(thread)
            thread.start()

    def run_reactor(self, reactor: Reactor) -> None:
        self.codes[reactor.pid] = reactor.run()

    def on_frame(self, member, frame) -> None:
        if frame.get("t") == "done":
            self.reports[(frame["epoch"], member.pid)] = frame
        elif frame.get("t") == "aborted":
            self.acks.append((member.pid, frame["epoch"]))

    def pump_until(self, cond, timeout: float = 30.0) -> None:
        end = time.monotonic() + timeout
        while not cond():
            assert time.monotonic() < end, "in-process fleet stalled"
            self.fleet.pump(0.02)

    def run_job(self, epoch: int, app: dict) -> int:
        self.fleet.broadcast({
            "t": "job", "id": f"j{epoch}", "epoch": epoch, "app": app,
            "run": {"protocol": "BTD", "n": N, "quantum": 16, "seed": 5},
            "timeout_s": 30.0})
        self.pump_until(lambda: all((epoch, pid) in self.reports
                                    for pid in range(N)))
        self.fleet.broadcast({"t": "job_end", "epoch": epoch})
        reports = {pid: self.reports[(epoch, pid)] for pid in range(N)}
        result, _stats, _metrics, _links = assemble(
            "BTD", N, N, reports, t_go=time.time())
        return result.total_units


def test_two_reactors_two_jobs_no_subprocess(tmp_path):
    h = Harness(str(tmp_path))
    try:
        h.pump_until(lambda: all(m.conn is not None
                                 for m in h.fleet.members))
        h.fleet.broadcast({"t": "init"})

        assert h.run_job(1, synthetic(UNITS)) == UNITS

        # a straggler of the finished epoch — 300 units of WORK from pid 1
        # — reaches idle pid 0.  An idle reactor acks a late abort, and
        # the connection is FIFO, so once the ack is back the straggler
        # has been through the epoch filter: dropped, not parked ...
        stale = message_to_frame(
            sized("WORK", 1, 0, (SyntheticWork(300), ""), 16))
        stale["j"] = 1
        h.fleet.members[0].conn.send_frame(stale)
        h.fleet.members[0].conn.send_frame({"t": "abort", "epoch": 1})
        h.pump_until(lambda: (0, 1) in h.acks)
        assert h.reactors[0].early == []
        # ... and not merged into the next job's pool either
        assert h.run_job(2, synthetic(UNITS + 500)) == UNITS + 500

        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
        assert h.codes == {0: 0, 1: 0}
    finally:
        h.fleet.close()
        for thread in h.threads:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in h.threads)

