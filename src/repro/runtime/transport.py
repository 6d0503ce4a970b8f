"""Framed socket transport: non-blocking connections, robust listeners.

A :class:`FramedConnection` owns one stream socket plus the two buffers a
non-blocking frame protocol needs: a :class:`~repro.runtime.codec.
FrameDecoder` on the inbound side (partial reads, frames spanning many
``recv`` calls) and an outbound byte queue (short writes, EAGAIN).  Frame
*objects* go in; complete frame objects come out; nobody above this layer
sees bytes.

Listeners prefer the requested port but survive collision:
:func:`open_listener` retries ``EADDRINUSE`` briefly (another run tearing
down), then falls back to an ephemeral port — the supervisor tells its
workers the port it actually got, so nothing above cares.
"""

from __future__ import annotations

import errno
import os
import socket
import time
from typing import Optional

from .codec import FrameDecoder, WireError, pack_frame

_RECV_CHUNK = 1 << 16

#: EADDRINUSE retries on the *requested* port before the ephemeral
#: fallback, and the pause between them.
BIND_RETRIES = 3
BIND_RETRY_DELAY_S = 0.05


class FramedConnection:
    """One frame-oriented stream socket (see module docstring)."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.eof = False
        self.closed = False

    # -- outbound ------------------------------------------------------------

    def send_frame(self, obj: dict) -> None:
        """Queue one frame (bytes leave in :meth:`flush`)."""
        if not self.closed:
            self.outbuf += pack_frame(obj)

    def flush(self) -> bool:
        """Push queued bytes; True once the buffer is empty."""
        while self.outbuf and not self.closed:
            try:
                sent = self.sock.send(self.outbuf)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                # receiver gone (EPIPE/ECONNRESET): drop the backlog — the
                # failure detector owns the consequences
                self.outbuf.clear()
                self.eof = True
                return True
            del self.outbuf[:sent]
        return True

    @property
    def wants_write(self) -> bool:
        return bool(self.outbuf) and not self.closed

    # -- inbound -------------------------------------------------------------

    def receive(self) -> list[dict]:
        """Drain the socket; returns complete frames (sets ``eof`` at EOF)."""
        frames: list[dict] = []
        while not self.closed:
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.eof = True
                break
            if not data:
                self.eof = True
                break
            frames.extend(self.decoder.feed(data))
        return frames

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.sock.close()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else ("eof" if self.eof else "open")
        return f"<FramedConnection {state} out={len(self.outbuf)}B>"


class InterestTable:
    """The selector bookkeeping of a reactor that re-arms its sockets
    every turn (read, plus write while a backlog waits): the registered
    mask of each descriptor is remembered, so an unchanged one costs a
    dict lookup instead of a syscall.  The reactor brings ``self.sel``
    and an empty ``self._interest``."""

    def set_interest(self, sock, flags: int, data) -> None:
        fd = sock.fileno()
        if fd < 0:
            return   # closed under us
        if fd not in self._interest:
            self.sel.register(sock, flags, data)
            self._interest[fd] = flags
        elif self._interest[fd] != flags:
            self.sel.modify(sock, flags, data)
            self._interest[fd] = flags

    def forget_sock(self, sock) -> None:
        fd = sock.fileno()
        if fd in self._interest:
            self.sel.unregister(sock)
            del self._interest[fd]


def open_listener(transport: str = "tcp", host: str = "127.0.0.1",
                  port: int = 0, path: Optional[str] = None,
                  backlog: int = 64) -> tuple[socket.socket, dict]:
    """Bind + listen; returns ``(socket, endpoint)``.

    ``endpoint`` is the JSON-able address workers connect to.  TCP binds
    retry ``EADDRINUSE`` (:data:`BIND_RETRIES` times) and then fall back
    to an ephemeral port, so a preferred-port collision degrades into a
    different port instead of a failed run.
    """
    if transport == "unix":
        if path is None:
            raise WireError("unix transport needs a socket path")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
        except OSError:
            sock.close()
            raise
        sock.listen(backlog)
        return sock, {"kind": "unix", "path": path}
    if transport != "tcp":
        raise WireError(f"unknown transport {transport!r}")
    last_error: Optional[OSError] = None
    for attempt, try_port in enumerate([port] * BIND_RETRIES + [0]):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.bind((host, try_port))
        except OSError as exc:
            sock.close()
            if exc.errno != errno.EADDRINUSE or try_port == 0:
                raise
            last_error = exc
            if attempt < BIND_RETRIES:
                time.sleep(BIND_RETRY_DELAY_S)
            continue
        sock.listen(backlog)
        bound = sock.getsockname()[1]
        return sock, {"kind": "tcp", "host": host, "port": bound}
    raise last_error  # pragma: no cover - the port-0 bind cannot collide


def connect_endpoint(endpoint: dict, timeout: float = 30.0) -> socket.socket:
    """Worker side: blocking connect to the supervisor's endpoint."""
    if endpoint["kind"] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(endpoint["path"])
    else:
        sock = socket.create_connection(
            (endpoint["host"], endpoint["port"]), timeout=timeout)
    sock.settimeout(None)
    return sock


def unlink_quietly(path: Optional[str]) -> None:
    """Remove a unix-socket path if it exists (shutdown hygiene)."""
    if path:
        try:
            os.unlink(path)
        except OSError:
            pass


__all__ = ["BIND_RETRIES", "FramedConnection", "InterestTable",
           "connect_endpoint", "open_listener", "unlink_quietly"]
