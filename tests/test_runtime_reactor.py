"""The worker reactor and the fleet, in one process.

``Reactor`` takes an already-connected ``FramedConnection`` (only
``worker.main`` dials, in a forked process that installed its signal
handlers and exits with its return value), so
two reactors can run on threads against a ``Fleet`` the test pumps itself
over ``socket.socketpair()`` — no subprocess.  The control plane is those
socketpairs; the data plane is the reactors' own peer listeners on
loopback, exactly as in a spawned fleet.  The same reactors run two jobs
back to back, which is the serve lifecycle: ``hello``, ``go``, ``job``
(epoch 1), ``job_end``, ``job`` (epoch 2), ``job_end``, ``shutdown``; a
one-shot run is ``hello``, ``go``, one ``job``, ``shutdown``.
"""

import select
import socket
import threading
import time

from repro.apps.synthetic import SyntheticApplication, SyntheticWork
from repro.runtime.codec import message_to_frame, pack_frame
from repro.runtime.fleet import Fleet, Member, assemble, live_run_config
from repro.runtime.spool import conserved_units_live
from repro.sim.messages import sized
from repro.runtime.transport import FramedConnection, connect_endpoint
from repro.runtime.worker import Reactor

from test_runtime_mesh import HOSTILE

N = 2
UNITS = 2000


def synthetic(units: int) -> dict:
    return {"kind": "synthetic", "units": units}


def work_frame(src: int, dst: int, units: int, epoch: int) -> dict:
    """``units`` of WORK from ``src`` for ``dst``, as job ``epoch``'s."""
    frame = message_to_frame(
        sized("WORK", src, dst, (SyntheticWork(units), ""), 16))
    frame["j"] = epoch
    return frame


class _Exited:
    """What ``Fleet.stop`` needs from a member whose "process" is a
    thread: it reports itself gone, so nothing is signalled."""

    exitcode = 0

    def join(self) -> None:
        pass

    def close(self) -> None:
        pass


class Harness:
    """A fleet of two in-process reactors (``cfg`` adds to each reactor's
    process configuration, e.g. ``fault_mode``)."""

    def __init__(self, run_dir: str, **cfg) -> None:
        self.fleet = Fleet(run_dir)
        self.fleet.members = [Member(pid, _Exited()) for pid in range(N)]
        self.fleet.on_frame = self.on_frame
        self.reports: dict = {}
        self.byes: dict = {}
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
        elif frame.get("t") == "bye":
            self.byes[member.pid] = frame

    def pump_until(self, cond, timeout: float = 30.0) -> None:
        end = time.monotonic() + timeout
        while not cond():
            assert time.monotonic() < end, "in-process fleet stalled"
            self.fleet.pump(0.02)

    def go(self) -> None:
        """The owner's half of the handshake: every hello in, then ``go``
        with the peer endpoints the hellos advertised."""
        members = self.fleet.members
        self.pump_until(lambda: all(m.conn is not None for m in members))
        self.fleet.broadcast(
            {"t": "go", "peers": {str(m.pid): m.peer for m in members}})

    def dial(self, pid: int) -> socket.socket:
        """A fresh connection to ``pid``'s data-plane listener."""
        return connect_endpoint(self.fleet.members[pid].peer)

    def close(self) -> None:
        self.fleet.close()
        for thread in self.threads:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in self.threads)

    def run_job(self, epoch: int, app: dict, end: bool = True) -> int:
        """One job to every reactor's ``done``; ``job_end`` unless
        ``end`` is False (a one-shot run shuts down instead)."""
        self.fleet.broadcast({
            "t": "job", "id": f"j{epoch}", "epoch": epoch, "app": app,
            "run": live_run_config(protocol="BTD", n=N, quantum=16,
                                   seed=5).to_wire(),
            "timeout_s": 30.0})
        self.pump_until(lambda: all((epoch, pid) in self.reports
                                    for pid in range(N)))
        if end:
            self.fleet.broadcast({"t": "job_end", "epoch": epoch})
        reports = {pid: self.reports[(epoch, pid)] for pid in range(N)}
        result, _stats, _metrics, _links = assemble(
            "BTD", N, N, reports, t_go=time.time())
        return result.total_units


def test_two_reactors_two_jobs_no_subprocess(tmp_path):
    h = Harness(str(tmp_path))
    peer = None
    try:
        h.go()
        assert h.run_job(1, synthetic(UNITS)) == UNITS

        # a straggler of the finished epoch — 300 units of WORK from pid 1
        # — reaches idle pid 0 over a peer connection.  The connection is
        # FIFO and a frame from an epoch still to come is parked, so once
        # that one is in `early` the straggler has been through the epoch
        # filter ahead of it: dropped, not parked ...
        peer = h.dial(0)
        peer.sendall(pack_frame({"t": "ph", "pid": 1})
                     + pack_frame(work_frame(1, 0, 300, epoch=1))
                     + pack_frame(work_frame(1, 0, 0, epoch=99)))
        h.pump_until(lambda: h.reactors[0].early)
        assert [f["j"] for f in h.reactors[0].early] == [99]
        # ... and a `msg` on the control connection is not protocol traffic
        # at all, whatever epoch it names
        h.fleet.members[0].conn.send_frame(work_frame(1, 0, 700, epoch=2))
        # neither is merged into the next job's pool
        assert h.run_job(2, synthetic(UNITS + 500)) == UNITS + 500

        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
        assert h.codes == {0: 0, 1: 0}
    finally:
        if peer is not None:
            peer.close()
        h.close()


def test_one_shot_lifecycle_no_subprocess(tmp_path):
    """What ``run_live`` sends a fault-mode fleet: ``go``, one ``job`` of
    epoch 1, and ``shutdown`` once both reported ``done``.  Each reactor
    answers the shutdown with its ``bye`` receipts - the receive log and
    crash-dropped pieces only a survivor can give - and exits 0."""
    h = Harness(str(tmp_path), fault_mode=True)
    try:
        h.go()
        assert h.run_job(1, synthetic(UNITS), end=False) == UNITS
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N and len(h.byes) == N)
        assert h.codes == {0: 0, 1: 0}
        for pid, bye in h.byes.items():
            assert bye["pid"] == pid
            assert isinstance(bye["recv_log"], dict)
            assert bye["crash_dropped"] == []
        # the receipts complete the reports: the four-place identity holds
        reports = {pid: {**h.reports[(1, pid)], **h.byes[pid]}
                   for pid in range(N)}
        assert conserved_units_live(SyntheticApplication(UNITS), reports,
                                    {}) == UNITS
    finally:
        h.close()


def test_strangers_at_the_peer_listener_cost_no_job(tmp_path):
    """Every hostile input of ``test_runtime_mesh.HOSTILE`` dialled into
    both reactors' data-plane listeners as a job starts: each such
    connection is closed, both reactors live on, and the job ends with the
    exact count."""
    h = Harness(str(tmp_path))
    try:
        h.go()
        strangers = []
        for payload in HOSTILE.values():
            for pid in range(N):
                sock = h.dial(pid)
                sock.sendall(payload)
                strangers.append(sock)
        assert h.run_job(1, synthetic(50 * UNITS)) == 50 * UNITS
        for sock in strangers:
            sock.settimeout(5.0)
            assert sock.recv(4096) == b""       # shown the door
            sock.close()
        assert h.codes == {}                     # nobody fell over
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
        assert h.codes == {0: 0, 1: 0}
    finally:
        h.close()


def bad_frame(src: int, dst: int, epoch: int) -> dict:
    """A ``msg`` from a member whose payload does not decode."""
    frame = work_frame(src, dst, 10, epoch)
    frame["p"] = {"__nope": 1}
    return frame


def test_undecodable_frame_from_a_member_costs_its_connection(tmp_path):
    """A member's ``msg`` that does not decode, delivered live: the pump
    closes that member's connection, drops the frame and everything that
    came with it, and keeps going; the next connection is heard again."""
    ours, theirs = socket.socketpair()
    reactor = Reactor({"pid": 0, "slots": N, "run_dir": str(tmp_path)},
                      FramedConnection(theirs))
    got = []

    class Env:
        def deliver(self, msg):
            got.append(msg)

    def pump_until(cond):
        end = time.monotonic() + 5.0
        while not cond():
            assert time.monotonic() < end, "reactor stalled"
            reactor.pump(0.02)

    def shown_the_door(sock):
        readable, _, _ = select.select([sock], [], [], 0)
        return bool(readable) and sock.recv(4096) == b""

    reactor.env, reactor.epoch = Env(), 3
    reactor.mesh.add_member(1, None)
    peers = []
    try:
        bad = connect_endpoint(reactor.peer_endpoint)
        peers.append(bad)
        bad.sendall(pack_frame({"t": "ph", "pid": 1})
                    + pack_frame(bad_frame(1, 0, 3))
                    + pack_frame(work_frame(1, 0, 10, 3)))
        pump_until(lambda: shown_the_door(bad))
        assert got == [] and reactor.mesh.conns == []
        good = connect_endpoint(reactor.peer_endpoint)
        peers.append(good)
        good.sendall(pack_frame({"t": "ph", "pid": 1})
                     + pack_frame(work_frame(1, 0, 20, 3)))
        pump_until(lambda: got)
        assert [m.payload[0].units for m in got] == [20]
    finally:
        for sock in peers:
            sock.close()
        ours.close()
        reactor.conn.close()
        reactor.mesh.close()
        reactor.sel.close()


def test_undecodable_early_frame_costs_its_connection_not_the_job(tmp_path):
    """The same frame parked before its job starts: the replay drops it
    and closes its connection, and the job runs to the exact count."""
    h = Harness(str(tmp_path))
    peer = None
    try:
        h.go()
        peer = h.dial(0)
        peer.sendall(pack_frame({"t": "ph", "pid": 1})
                     + pack_frame(bad_frame(1, 0, epoch=1)))
        h.pump_until(lambda: h.reactors[0].early)
        assert h.run_job(1, synthetic(UNITS)) == UNITS
        peer.settimeout(5.0)
        assert peer.recv(4096) == b""            # shown the door
        assert h.codes == {}                     # nobody fell over
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == N)
        assert h.codes == {0: 0, 1: 0}
    finally:
        if peer is not None:
            peer.close()
        h.close()


def test_a_uts_piece_of_another_tree_costs_its_connection(tmp_path):
    """A UTS piece's generator parameters come from the sender, and
    ``b0`` sizes the receiver's expansion of a depth-0 entry: a one-entry
    WORK frame whose tree is not the job's (here ``b0 = 10**6``), bare or
    in a reliable envelope, is a hostile input - the sender's connection
    goes, the frame is dropped - while a piece of the job's tree is
    delivered."""
    import dataclasses
    from repro.uts.params import get_preset
    from repro.uts.work import UTSWork

    params = get_preset("bin_small").params
    hostile = UTSWork.root(dataclasses.replace(params, b0=10**6))
    ours, theirs = socket.socketpair()
    reactor = Reactor({"pid": 0, "slots": N, "run_dir": str(tmp_path)},
                      FramedConnection(theirs))
    got = []

    class Env:
        def deliver(self, msg):
            got.append(msg)

    class Proc:
        work = UTSWork.empty(params)

    def uts_frame(piece, envelope: bool) -> dict:
        body = (piece, "")
        frame = message_to_frame(sized(
            "RMSG", 1, 0, (1, "WORK", body), 16) if envelope
            else sized("WORK", 1, 0, body, 16))
        frame["j"] = 3
        return frame

    def pump_until(cond):
        end = time.monotonic() + 5.0
        while not cond():
            assert time.monotonic() < end, "reactor stalled"
            reactor.pump(0.02)

    def shown_the_door(sock):
        readable, _, _ = select.select([sock], [], [], 0)
        return bool(readable) and sock.recv(4096) == b""

    reactor.env, reactor.proc, reactor.epoch = Env(), Proc(), 3
    reactor.mesh.add_member(1, None)
    peers = []
    try:
        for envelope in (False, True):
            bad = connect_endpoint(reactor.peer_endpoint)
            peers.append(bad)
            bad.sendall(pack_frame({"t": "ph", "pid": 1})
                        + pack_frame(uts_frame(hostile, envelope)))
            pump_until(lambda: shown_the_door(bad))
            assert got == [] and reactor.mesh.conns == []
        good = connect_endpoint(reactor.peer_endpoint)
        peers.append(good)
        good.sendall(pack_frame({"t": "ph", "pid": 1})
                     + pack_frame(uts_frame(UTSWork.root(params), True)))
        pump_until(lambda: got)
        assert got[0].payload[2][0].params == params
    finally:
        for sock in peers + [ours]:
            sock.close()
        reactor.conn.close()
        reactor.mesh.close()
        reactor.sel.close()
