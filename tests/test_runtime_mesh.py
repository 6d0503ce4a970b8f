"""Unit tests for the data plane (:mod:`repro.runtime.mesh`) and the
supervisor's membership :class:`~repro.runtime.supervisor.Registry`.

These pin the handshake/registry protocol without spawning processes:
meshes talk to each other over real loopback sockets inside one process,
so the early-frame buffering, peer-hello identification, sender-side
partition behaviour and what a stranger at the listener gets are
exercised on the actual transport.
"""

from __future__ import annotations

import socket
import time

import pytest

import repro.runtime.mesh as mesh_mod
from repro.runtime.codec import pack_frame
from repro.runtime.mesh import PeerMesh, open_peer_listener
from repro.runtime.transport import FramedConnection, connect_endpoint
from repro.runtime.supervisor import LiveConfig, Registry
from repro.sim.errors import SimConfigError
from repro.runtime.supervisor import LiveRuntimeError


def make_mesh(pid: int) -> PeerMesh:
    listener, endpoint = open_peer_listener("tcp", "127.0.0.1", 0, None, pid)
    mesh = PeerMesh(pid, listener)
    mesh.endpoint = endpoint   # test-side convenience
    return mesh


def pump(mesh: PeerMesh, until, *senders: PeerMesh,
         timeout: float = 5.0) -> list[dict]:
    """Accept + service everything until ``until(mesh, delivered)``.

    ``senders`` are flushed every round: :meth:`PeerMesh.send` only
    queues (bytes must never leave ahead of the spool commit), so the
    test plays the reactor's post-commit ``flush_all`` role here.
    """
    delivered: list[dict] = []
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        for s in senders:
            s.flush_all()
        mesh.accept()
        for conn in list(mesh.open_conns()):
            delivered.extend(mesh.service(conn))
        if until(mesh, delivered):
            return delivered
        time.sleep(0.005)
    raise AssertionError(f"pump timed out; delivered={delivered}, "
                         f"pending={mesh.pending_frames}")


def msg(src: int, dst: int, seq: int = 0) -> dict:
    return {"t": "msg", "src": src, "dst": dst, "kind": "STEAL_REQ",
            "p": seq, "b": 12}


class TestPeerMeshDataPlane:
    def test_frames_flow_between_introduced_peers(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            a.send(msg(0, 1))
            got = pump(b, lambda m, d: d, a)
            assert [f["p"] for f in got] == [0]
            assert a.link_frames[1] == 1 and a.link_bytes[1] == 12
        finally:
            a.close()
            b.close()

    def test_early_frames_buffer_until_membership_arrives(self):
        # A joiner can dial a peer before the supervisor's join
        # announcement reaches that peer (two independent streams): the
        # frames must buffer, invisible to the protocol, and replay in
        # arrival order the moment the control plane introduces the pid.
        joiner, old = make_mesh(4), make_mesh(1)
        try:
            joiner.add_member(1, old.endpoint)
            # `old` has NOT been told about pid 4
            joiner.send(msg(4, 1, seq=7))
            joiner.send(msg(4, 1, seq=8))
            pump(old, lambda m, d: len(m.pending_frames.get(4, ())) == 2,
                 joiner)
            assert old.pending_frames[4][0]["p"] == 7   # arrival order kept
            replay = old.add_member(4, None)
            assert [f["p"] for f in replay] == [7, 8]
            assert old.pending_frames == {}             # drained, not copied
        finally:
            joiner.close()
            old.close()

    def test_peer_hello_identifies_inbound_connection(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            a.send(msg(0, 1))           # dial carries the ph introduction
            pump(b, lambda m, d: d, a)
            # b learned the dialler's pid and reuses the inbound
            # connection as its route back (b never dialled itself)
            assert 0 in b.by_pid
            b.send(msg(1, 0, seq=3))
            got = pump(a, lambda m, d: d, b)
            assert [f["p"] for f in got] == [3]
        finally:
            a.close()
            b.close()

    def test_concurrent_cross_dial_keeps_per_direction_streams(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            a.send(msg(0, 1, seq=1))    # a dials b
            b.send(msg(1, 0, seq=2))    # b dials a concurrently
            got_b = pump(b, lambda m, d: d, a)
            got_a = pump(a, lambda m, d: d, b)
            assert [f["p"] for f in got_b] == [1]
            assert [f["p"] for f in got_a] == [2]
            # each side keeps using the connection IT dialled outbound
            assert a.by_pid[1] is not b.by_pid[0]
            a.send(msg(0, 1, seq=9))
            assert [f["p"] for f in pump(b, lambda m, d: d, a)] == [9]
        finally:
            a.close()
            b.close()

    def test_partition_window_drops_sender_side(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            a.partitions = ((frozenset({1}), 0.0, 30.0),)
            a.arm()
            a.send(msg(0, 1))           # crosses the cut: dies at the sender
            assert a.part_drops == 1
            assert 1 not in a.link_frames      # never counted as sent
            # same-side traffic is unaffected by the window
            a.partitions = ((frozenset({0, 1}), 0.0, 30.0),)
            a.send(msg(0, 1, seq=5))
            assert a.part_drops == 1
            assert [f["p"] for f in pump(b, lambda m, d: d, a)] == [5]
        finally:
            a.close()
            b.close()

    def test_drop_peer_drains_last_frames_and_forgets(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            a.send(msg(0, 1, seq=1))
            pump(b, lambda m, d: d, a)
            a.send(msg(0, 1, seq=2))    # in flight when the death lands
            a.flush_all()
            time.sleep(0.05)
            leftovers = b.drop_peer(0)
            assert [f["p"] for f in leftovers] == [2]
            assert 0 not in b.by_pid and 0 not in b.members
        finally:
            a.close()
            b.close()


#: What any local process can say to a worker's data-plane listener.
#: Each is one connection's whole say; the mesh closes that connection and
#: nothing of it reaches the protocol.
HOSTILE = {
    "garbage length prefix": b"\xff\xff\xff\xff",
    "ph without a pid": pack_frame({"t": "ph"}),
    "ph with an unhashable pid": pack_frame({"t": "ph", "pid": [1]}),
    "msg with an unhashable src": pack_frame({"t": "msg", "src": [1]}),
    "a member's src, no ph": pack_frame(
        {"t": "msg", "src": 0, "dst": 1, "kind": "STEAL_REQ", "p": 0,
         "b": 12}),
}


def hung_up_on(endpoint: dict, payload: bytes, serve) -> bool:
    """Dial ``endpoint`` as a stranger, say ``payload``; True once the
    listener's side hung up (``serve()`` gives it turns to do so)."""
    sock = connect_endpoint(endpoint)
    try:
        sock.sendall(payload)
        sock.settimeout(0.01)
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            serve()
            try:
                return sock.recv(4096) == b""
            except socket.timeout:
                continue
            except OSError:     # reset: closed on us
                return True
        return False
    finally:
        sock.close()


class TestPeerListenerIsAnOpenDoor:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_stranger_is_shown_the_door(self, case):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            delivered = []

            def serve():
                b.accept()
                for conn in b.open_conns():
                    delivered.extend(b.service(conn))

            assert hung_up_on(b.endpoint, HOSTILE[case], serve)
            assert delivered == [] and b.pending_frames == {}
            assert b.conns == [] and b._pid_of == {}
            # the member it may have posed as is still heard
            a.send(msg(0, 1, seq=4))
            assert [f["p"] for f in pump(b, lambda m, d: d, a)] == [4]
        finally:
            a.close()
            b.close()

    def test_identified_connection_cannot_speak_for_another_pid(self):
        a, b = make_mesh(0), make_mesh(1)
        try:
            a.add_member(1, b.endpoint)
            b.add_member(0, a.endpoint)
            b.add_member(2, None)
            a.send(msg(0, 1, seq=1))
            a.send(msg(2, 1, seq=2))        # pid 0 posing as pid 2
            a.send(msg(0, 1, seq=3))
            got = pump(b, lambda m, d: not m.conns, a)
            assert [f["p"] for f in got] == [1]     # then the door
        finally:
            a.close()
            b.close()

    def test_frames_parked_for_strangers_are_capped(self, monkeypatch):
        monkeypatch.setattr(mesh_mod, "MAX_EARLY_FRAMES", 3)
        old = make_mesh(1)
        far_ends = []
        try:
            for pid in (4, 5):      # the control plane introduced neither
                ours, theirs = socket.socketpair()
                far_ends.append(ours)
                ours.sendall(b"".join(map(pack_frame, [
                    {"t": "ph", "pid": pid}, msg(pid, 1, 0), msg(pid, 1, 1)])))
                conn = FramedConnection(theirs)
                old.conns.append(conn)
                assert old.service(conn) == []
            # one cap over everything parked, whichever pid it came from
            assert ({pid: [f["p"] for f in frames]
                     for pid, frames in old.pending_frames.items()}
                    == {4: [0, 1], 5: [0]})
        finally:
            old.close()
            for sock in far_ends:
                sock.close()


class TestRegistry:
    def cfg(self, **kw) -> LiveConfig:
        base = dict(protocol="BTD", n=4, fault_tolerance=True,
                    joins=({"pid": 4, "after_s": 0.1},))
        base.update(kw)
        return LiveConfig(**base)

    def test_duplicate_registration_is_refused(self):
        reg = Registry(self.cfg())
        reg.register(1, {"kind": "tcp", "host": "h", "port": 1})
        with pytest.raises(LiveRuntimeError, match="duplicate hello"):
            reg.register(1, {"kind": "tcp", "host": "h", "port": 2})
        # the first registration survives the rejected impostor
        assert reg.endpoints[1]["port"] == 1

    def test_registration_requires_an_endpoint(self):
        reg = Registry(self.cfg())
        with pytest.raises(LiveRuntimeError, match="endpoint"):
            reg.register(2, None)

    def test_assign_parent_is_deterministic_and_valid(self):
        # TD trees keep packing by the degree bound...
        reg = Registry(self.cfg(dmax=3))
        assert reg.assign_parent(4) == 1
        # ...random trees keep drawing uniform earlier nodes, stable per
        # (seed, pid) so every member grafts the identical leaf
        cfg = self.cfg(protocol="BTR", seed=7)
        parents = {Registry(cfg).assign_parent(5) for _ in range(5)}
        assert len(parents) == 1
        assert 0 <= parents.pop() < 5

    def test_peers_excludes_the_departed(self):
        reg = Registry(self.cfg())
        for pid in range(3):
            reg.register(pid, {"kind": "tcp", "host": "h", "port": pid})
        reg.mark_dead(1)
        reg.mark_left(2)
        assert set(reg.peers()) == {0}


class TestElasticMembershipConfig:
    def test_the_mesh_is_the_only_data_plane(self):
        # callers that still pass the old switch keep constructing ...
        assert LiveConfig(n=2, p2p=True).p2p
        # ... and asking for the relay says where it went
        with pytest.raises(SimConfigError, match="star relay was removed"):
            LiveConfig(n=2, p2p=False)

    def test_joins_require_fault_tolerance(self):
        with pytest.raises(SimConfigError, match="fault_tolerance"):
            LiveConfig(n=4, joins=({"pid": 4, "after_s": 0.1},))

    def test_join_pids_must_be_consecutive_from_n(self):
        with pytest.raises(SimConfigError, match="consecutive"):
            LiveConfig(n=4, fault_tolerance=True,
                       joins=({"pid": 6, "after_s": 0.1},))

    def test_leave_cannot_target_root_or_kill_victim(self):
        with pytest.raises(SimConfigError, match="non-root"):
            LiveConfig(n=4, fault_tolerance=True,
                       leaves=({"pid": 0, "after_s": 0.1},))
        with pytest.raises(SimConfigError, match="both leave and be killed"):
            LiveConfig(n=4, fault_tolerance=True,
                       kills=({"pid": 2, "after_s": 0.5},),
                       leaves=({"pid": 2, "after_s": 0.1},))

    def test_membership_needs_a_tree_protocol(self):
        with pytest.raises(SimConfigError, match="tree protocol"):
            LiveConfig(protocol="RWS", n=4, fault_tolerance=True,
                       joins=({"pid": 4, "after_s": 0.1},))

    def test_partition_sides_may_include_joiner_slots(self):
        cfg = LiveConfig(protocol="BTD", n=4, fault_tolerance=True,
                         joins=({"pid": 4, "after_s": 0.1},),
                         partitions=({"side": [4], "start_s": 0.2,
                                      "end_s": 0.4},))
        assert cfg.slots == 5
