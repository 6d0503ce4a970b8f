"""Client side of the serve API: one socket, newline-JSON request/response.

The protocol is strictly one response per request on a single connection,
so the client is a thin synchronous wrapper; it is **not** thread-safe —
give each submitter thread its own :class:`ServeClient` (they are cheap:
one socket each).
"""

from __future__ import annotations

import socket
import time
from typing import Optional, Union

from ..sim.errors import SimRuntimeError
from .protocol import encode_line, parse_address, read_line


class ServeClientError(SimRuntimeError):
    """The daemon is unreachable or closed the connection mid-exchange."""


def connect_address(address: tuple, timeout: float = 10.0) -> socket.socket:
    if address[0] != "unix":
        return socket.create_connection(address[1:], timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(address[1])
    return sock


class ServeClient:
    """One connection to a serve daemon.

    ``address`` is either the tuple :meth:`repro.serve.daemon.ServeDaemon.
    start` returned (``("tcp", host, port)`` / ``("unix", path)``) or the
    string form (``tcp:HOST:PORT`` / ``unix:/path``).
    """

    def __init__(self, address: Union[tuple, str],
                 timeout: float = 30.0) -> None:
        self.address = (parse_address(address) if isinstance(address, str)
                        else tuple(address))
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # -- plumbing ------------------------------------------------------------

    def connect(self, retry_for_s: float = 0.0) -> "ServeClient":
        """Open the socket; optionally retry (a daemon still booting)."""
        deadline = time.monotonic() + retry_for_s
        while True:
            try:
                self._sock = connect_address(self.address, self.timeout)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self._rfile = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        for f in (self._rfile, self._sock):
            if f is not None:
                try:
                    f.close()
                except OSError:
                    pass
        self._sock = self._rfile = None

    def __enter__(self) -> "ServeClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def request(self, op: str, **fields) -> dict:
        if self._sock is None:
            self.connect()
        try:
            self._sock.sendall(encode_line({"op": op, **fields}))
            resp = read_line(self._rfile)
        except (OSError, ValueError) as exc:
            self.close()
            raise ServeClientError(f"daemon connection failed during "
                                   f"{op!r}: {exc}") from exc
        if resp is None:
            self.close()
            raise ServeClientError(f"daemon closed the connection "
                                   f"during {op!r}")
        return resp

    # -- ops -----------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def submit(self, app: dict, run: Optional[dict] = None,
               timeout_s: Optional[float] = None) -> dict:
        fields: dict = {"app": app}
        if run is not None:
            fields["run"] = run
        if timeout_s is not None:
            fields["timeout_s"] = timeout_s
        return self.request("submit", **fields)

    def status(self, job_id: str) -> dict:
        return self.request("status", job_id=job_id)

    def result(self, job_id: str) -> dict:
        return self.request("result", job_id=job_id)

    def report(self, job_id: str) -> dict:
        return self.request("report", job_id=job_id)

    def stats(self) -> dict:
        return self.request("stats")

    def fleet(self) -> dict:
        return self.request("fleet")

    def dead_letters(self, limit: int = 50) -> dict:
        return self.request("dead_letters", limit=limit)

    def drain(self, wait: bool = True, timeout_s: float = 300.0) -> dict:
        return self.request("drain", wait=wait, timeout_s=timeout_s)

    def resume(self) -> dict:
        return self.request("resume")

    def restart(self) -> dict:
        return self.request("restart")

    def shutdown(self, wait: bool = True, timeout_s: float = 300.0) -> dict:
        return self.request("shutdown", wait=wait, timeout_s=timeout_s)

    # -- conveniences --------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: Optional[float] = None) -> dict:
        """The job's ``status`` once it is terminal (done or dead): one
        ``wait`` request, which the daemon answers when the job ends;
        raises if ``timeout`` passes first.  ``poll`` is ignored."""
        if self._sock is None:
            self.connect()
        self._sock.settimeout(self.timeout + timeout)
        try:
            st = self.request("wait", job_id=job_id, timeout_s=timeout)
        finally:
            if self._sock is not None:
                self._sock.settimeout(self.timeout)
        if st.get("ok") and st.get("state") not in ("done", "dead"):
            raise ServeClientError(
                f"job {job_id} not terminal after {timeout}s "
                f"(state {st.get('state')!r})")
        return st

    def submit_retry(self, app: dict, run: Optional[dict] = None,
                     timeout_s: Optional[float] = None,
                     retry_for_s: float = 120.0,
                     backoff0_s: float = 0.05) -> tuple[dict, int]:
        """Submit, retrying structured ``busy`` rejections with capped
        exponential backoff.  Returns ``(accept_response, rejections)``;
        any non-busy rejection is returned immediately."""
        deadline = time.monotonic() + retry_for_s
        backoff = backoff0_s
        rejections = 0
        while True:
            resp = self.submit(app, run=run, timeout_s=timeout_s)
            if resp.get("ok") or resp.get("error") != "busy":
                return resp, rejections
            rejections += 1
            if time.monotonic() > deadline:
                return resp, rejections
            hint = resp.get("retry_after_s")
            delay = min(backoff, 1.0)
            if isinstance(hint, (int, float)) and hint > 0:
                delay = min(max(delay, 0.2 * float(hint)), 2.0)
            time.sleep(delay)
            backoff = min(backoff * 2, 1.0)


__all__ = ["ServeClient", "ServeClientError", "connect_address"]
