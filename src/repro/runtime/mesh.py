"""The data plane: direct worker<->worker framed connections.

The owner of a fleet (one-shot supervisor or serve lane) is control plane
only — spawn, registry, kill plans, collection — and never sees a
protocol frame.  Every worker opens its own listener before saying
``hello``; the owner's start frame (and later ``join`` announcements)
hands each member its peers' endpoints, and a :class:`PeerMesh` then owns
the data plane:

* **lazy dialing** — the first frame to a peer opens the connection and
  introduces us with a ``ph`` (peer-hello) frame; both sides may dial
  concurrently, in which case each keeps using the connection *it*
  opened, so the per-direction FIFO property the termination argument
  relies on is preserved (each direction's frames ride one TCP stream in
  send order, as on the simulator and on the paper's TCP testbed).
* **membership buffering** — a joining worker may reach a peer before the
  supervisor's ``join`` announcement does (two independent streams).
  Frames from a pid we do not yet know are buffered (at most
  :data:`MAX_EARLY_FRAMES` of them) and replayed the moment the control
  plane introduces it, so the grafted overlay exists locally before any
  of the joiner's protocol traffic is delivered.
* **an open door** — the listener is a loopback (or run-directory) socket
  any local process can dial, and what comes through it is unchecked
  outside input.  A connection whose first frame is not a well-formed
  ``ph``, that stops being a frame stream, or that sends a ``msg`` under
  another pid than the one it introduced itself as is closed and
  forgotten; nothing it said reaches the protocol.
* **partition emulation** — the sender applies the run's partition
  windows itself: a frame whose destination is on the far side of an
  active cut dies here (counted in ``part_drops``), the live analogue of
  the simulator's partitioned network.
* **link accounting** — per-destination frame/byte counters feed the
  report's per-link traffic table.

Everything above the frame level — reliable channel, spools, repair,
conservation — is unchanged: a lost dial or a closed peer socket is just
message loss, which the reliable channel already survives.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

from .codec import WireError
from .transport import FramedConnection, connect_endpoint, open_listener

#: Protocol frames a worker parks for later: the mesh's, from pids the
#: control plane has not introduced yet, and the reactor's, for a job that
#: has not started here yet.
MAX_EARLY_FRAMES = 10_000

#: Worker-to-worker dials are loopback to an already-listening socket;
#: anything slower than this means the peer is gone.
DIAL_TIMEOUT_S = 5.0


def open_peer_listener(transport: str, host: str, port: int,
                       run_dir: Optional[str],
                       pid: int) -> tuple[socket.socket, dict]:
    """Bind this worker's data-plane listener; returns ``(sock, endpoint)``.

    Unix runs put one socket per pid in the run directory; TCP runs bind
    the preferred ``port`` (``peer_port_base + pid``, or 0 for ephemeral)
    and inherit :func:`~repro.runtime.transport.open_listener`'s
    EADDRINUSE retry + ephemeral fallback — the supervisor distributes
    whatever endpoint was actually bound, so a collision degrades into a
    different port, never a failed worker.
    """
    if transport == "unix":
        path = os.path.join(run_dir or ".", f"peer_{pid}.sock")
        sock, endpoint = open_listener("unix", path=path)
    else:
        sock, endpoint = open_listener("tcp", host=host, port=port)
    sock.setblocking(False)
    return sock, endpoint


class PeerMesh:
    """One worker's view of the data plane (see module docstring).

    Args:
        pid: our pid.
        listener: our (non-blocking) peer listener socket.
        on_conn: called with each new :class:`FramedConnection` (dialled
            or accepted) so the reactor can register it for readiness.
        on_drop: called with each connection the mesh forgets.
    """

    def __init__(self, pid: int, listener: socket.socket,
                 on_conn: Optional[Callable] = None,
                 on_drop: Optional[Callable] = None) -> None:
        self.pid = pid
        self.listener = listener
        self.on_conn = on_conn
        self.on_drop = on_drop
        self.conns: list[FramedConnection] = []
        self.by_pid: dict[int, FramedConnection] = {}   # outbound routing
        self._pid_of: dict[int, int] = {}               # id(conn) -> pid
        self.endpoints: dict[int, dict] = {}
        self.members: set[int] = set()
        #: frames from pids the control plane has not introduced yet
        self.pending_frames: dict[int, list[dict]] = {}
        # sender-side partition emulation; armed at `go`
        self.partitions: tuple = ()     # ((frozenset(side), t0, t1), ...)
        self._t_go: Optional[float] = None
        self.part_drops = 0
        # per-destination traffic (frames, bytes of stated payload)
        self.link_frames: dict[int, int] = {}
        self.link_bytes: dict[int, int] = {}

    # -- membership ----------------------------------------------------------

    def arm(self) -> None:
        """Start the partition clock (the worker's ``go`` instant)."""
        self._t_go = time.monotonic()

    def add_member(self, pid: int, endpoint: Optional[dict]) -> list[dict]:
        """The control plane introduced ``pid``; returns the frames it sent
        us early, in arrival order, for immediate delivery."""
        self.members.add(pid)
        if endpoint is not None:
            self.endpoints[pid] = endpoint
        return self.pending_frames.pop(pid, [])

    def drop_peer(self, pid: int) -> list[dict]:
        """``pid`` is gone (death or graceful leave): drain its connection
        one last time and forget it.  Returns every frame it managed to
        deliver — hand those to the protocol *before* announcing the
        death: they physically arrived first."""
        self.members.discard(pid)
        self.endpoints.pop(pid, None)
        out = self.pending_frames.pop(pid, [])
        self.by_pid.pop(pid, None)
        for conn in self.conns_of(pid):
            out.extend(f for f in self._read(conn)
                       if f.get("t") == "msg" and f.get("src") == pid)
            self.forget(conn)
        return out

    # -- outbound ------------------------------------------------------------

    def _cut(self, dst: int) -> bool:
        if self._t_go is None or not self.partitions:
            return False
        t = time.monotonic() - self._t_go
        for side, t0, t1 in self.partitions:
            if t0 <= t < t1 and ((self.pid in side) != (dst in side)):
                return True
        return False

    def send(self, frame: dict) -> None:
        """Queue one ``msg`` frame toward its destination worker.

        Queue only — no bytes leave here.  The worker's reactor flushes
        (:meth:`flush_all`) strictly *after* committing the write-ahead
        spool, and that ordering is the whole conservation argument: a
        frame that escaped before the commit describing it would let a
        SIGKILL strand (or duplicate) the work it carries."""
        dst = frame["dst"]
        if self._cut(dst):
            self.part_drops += 1
            return
        conn = self.by_pid.get(dst)
        if conn is None or conn.closed or conn.eof:
            conn = self._dial(dst)
            if conn is None:
                return   # peer unreachable: the frame is lost, the
                         # reliable channel retransmits or recovers
        self.link_frames[dst] = self.link_frames.get(dst, 0) + 1
        self.link_bytes[dst] = self.link_bytes.get(dst, 0) + frame.get("b", 0)
        conn.send_frame(frame)

    def _dial(self, dst: int) -> Optional[FramedConnection]:
        endpoint = self.endpoints.get(dst)
        if endpoint is None:
            return None
        try:
            sock = connect_endpoint(endpoint, timeout=DIAL_TIMEOUT_S)
        except OSError:
            return None
        conn = FramedConnection(sock)
        conn.send_frame({"t": "ph", "pid": self.pid})
        self.conns.append(conn)
        self.by_pid[dst] = conn
        self._pid_of[id(conn)] = dst
        if self.on_conn is not None:
            self.on_conn(conn)
        return conn

    # -- inbound -------------------------------------------------------------

    def accept(self) -> None:
        """Drain the listener's accept queue (reactor: listener readable)."""
        while True:
            try:
                sock, _addr = self.listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn = FramedConnection(sock)
            self.conns.append(conn)
            if self.on_conn is not None:
                self.on_conn(conn)

    def _read(self, conn: FramedConnection) -> list[dict]:
        """Everything ``conn`` has sent; a stream that stops decoding is
        closed, and what came with the bad bytes is not trusted either."""
        try:
            return conn.receive()
        except WireError:
            self.forget(conn)
            return []

    def service(self, conn: FramedConnection) -> list[dict]:
        """Drain one connection; returns the frames ready for delivery.

        A connection says who it is once, first, with a ``ph``, and then
        sends ``msg`` frames under that pid; anything else closes it (see
        module docstring).  Frames from a pid the control plane has not
        introduced yet are buffered instead of delivered."""
        out: list[dict] = []
        who = self._pid_of.get(id(conn))
        for frame in self._read(conn):
            t = frame.get("t")
            if who is None:
                who = frame.get("pid")
                if (t != "ph" or type(who) is not int or who < 0
                        or who == self.pid):
                    self.forget(conn)
                    break
                self._identify(conn, who)
            elif t != "msg" or frame.get("src") != who:
                self.forget(conn)
                break
            elif who in self.members:
                out.append(frame)
            elif (sum(map(len, self.pending_frames.values()))
                    < MAX_EARLY_FRAMES):
                self.pending_frames.setdefault(who, []).append(frame)
        return out

    def _identify(self, conn: FramedConnection, src: int) -> None:
        self._pid_of[id(conn)] = src
        cur = self.by_pid.get(src)
        if cur is None or cur.closed or cur.eof:
            # no outbound route yet: reuse the inbound connection.  If we
            # dialled them concurrently, ours stays the outbound route and
            # this one is receive-only — each direction keeps one stream.
            self.by_pid[src] = conn

    # -- reactor plumbing ----------------------------------------------------

    def conns_of(self, pid: int) -> list[FramedConnection]:
        """Every connection identified as ``pid``'s (in- and outbound)."""
        return [c for c in self.conns if self._pid_of.get(id(c)) == pid]

    def open_conns(self) -> list[FramedConnection]:
        """Live connections (for readiness registration)."""
        return [c for c in self.conns if not c.closed]

    def forget(self, conn: FramedConnection) -> None:
        """Close and drop one connection (EOF, peer death or a stranger
        shown the door); forgetting it twice is harmless."""
        if conn not in self.conns:
            return
        self.conns.remove(conn)
        pid = self._pid_of.pop(id(conn), None)
        if pid is not None and self.by_pid.get(pid) is conn:
            del self.by_pid[pid]
        if self.on_drop is not None:
            self.on_drop(conn)
        conn.close()

    def flush_all(self) -> bool:
        """Push queued bytes everywhere; True when every buffer drained."""
        done = True
        for conn in self.conns:
            if conn.wants_write:
                done = conn.flush() and done
        return done

    def links_wire(self, since: Optional[dict] = None) -> dict:
        """JSON-able per-destination (frames, bytes) counters - or, given
        an earlier reading, their growth since (links that stayed silent
        are left out): the mesh outlives jobs on a warm fleet."""
        since = since or {}
        out = {}
        for dst in sorted(self.link_frames):
            f0, b0 = since.get(str(dst), (0, 0))
            if self.link_frames[dst] > f0:
                out[str(dst)] = [self.link_frames[dst] - f0,
                                 self.link_bytes.get(dst, 0) - b0]
        return out

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns.clear()
        self.by_pid.clear()
        self._pid_of.clear()
        try:
            self.listener.close()
        except OSError:
            pass


__all__ = ["DIAL_TIMEOUT_S", "MAX_EARLY_FRAMES", "PeerMesh",
           "open_peer_listener"]
