"""Exactly-once message transport over lossy links.

When a :class:`~repro.sim.faults.FaultPlan` is active the fault layer may
drop or duplicate any transmission, so the protocol state machines (OCLB
request/serve, termination waves) can no longer rely on the engine's
exactly-once delivery. Rather than hardening every state machine, the
worker routes its sends through this channel, which restores exactly-once
semantics at the transport level:

* every protocol message is wrapped in an ``RMSG (seq, kind, payload)``
  envelope; the receiver always answers ``RACK seq`` and processes the
  inner message only the first time a ``(src, seq)`` pair is seen;
* unacknowledged transfers are retransmitted with exponential backoff
  (base ``timeout``, doubling up to ``2^retries``, clamped to
  ``max_backoff``). With loss < 1 a live receiver is reached with
  probability 1, so the protocols above need no changes at all for loss
  and duplication — only crashes leak through.

Gray failures and partitions add a third failure mode: a peer that is
*alive but unreachable* (or pathologically slow). Retrying such a peer
forever wastes the sender and, worse, keeps the overlay routing work at a
black hole. The channel therefore keeps one **circuit breaker** per peer:

* **closed** — normal operation; every retransmit timeout against the
  peer bumps a consecutive-failure counter, any ack resets it;
* **open** — after ``breaker_threshold`` consecutive timeouts the breaker
  trips: outbound transfers to the peer are *parked* (they stay pending —
  unacked WORK still counts as in-flight for termination detection — but
  stop burning retransmits), and the host is told to route around the
  peer (``peer_suspected``: excluded from victim selection and bridge
  re-pick);
* **half-open** — after a probe delay (doubling, clamped to
  ``max_backoff``) the breaker sends one heartbeat PING through the
  envelope layer; any ack from the peer — the probe's or a late data
  ack — closes the breaker, releases the parked transfers and tells the
  host the peer is back (``peer_recovered``).

A suspected peer is *not* a dead peer: nothing is abandoned or recovered,
the dead-set termination waves never count it, and the splice/adopt repair
machinery is not invoked. Suspicion is a routing decision that heals; only
the failure detector (ground-truth ``is_crashed`` in the simulator, the
supervisor's EOF watch live) turns a peer into a corpse.

Crash handling makes two explicit modelling choices (documented in
``docs/experiments.md``):

* **Perfect failure detection.** Each retransmission timer first consults
  the engine's ground truth (:meth:`~repro.sim.engine.Simulator.is_crashed`)
  before resending. A crashed peer is therefore detected within one
  ``timeout`` of the first lost exchange, and a live peer is *never*
  falsely declared dead — the resilient-GLB literature assumes the same
  (heartbeat-based detectors with conservative timeouts).
* **A stable receive log.** On peer death the sender must decide, for each
  unacknowledged WORK transfer, whether the piece reached the peer before
  the crash (abandon it: the work died with its owner and is accounted as
  crashed) or not (recover it: merge the piece back locally). The channel
  resolves this two-generals ambiguity by peeking the dead peer's dedup
  log — modelling the write-ahead receive log a real fault-tolerant
  runtime keeps on stable storage. Without it, exact work conservation
  over the surviving nodes would be unprovable.

The channel only exists when faults are active; clean runs never construct
one and keep the engine's native delivery path bit-for-bit unchanged.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from ..sim.messages import sized

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .worker import WorkerProcess

RMSG = "RMSG"   # reliable envelope: payload = (seq, inner kind, inner payload)
RACK = "RACK"   # transport acknowledgement: payload = seq

#: Envelope overhead charged on the wire (seq + kind tag).
_ENVELOPE_BYTES = 12

#: Inner kind whose payload carries a work piece — tracked for the
#: termination waves ("work in flight" counts as active) and recovered on
#: peer death. Literal to avoid a circular import with ``worker``.
_WORK = "WORK"

#: Inner kind of the breaker's half-open heartbeat probe. The receiver's
#: envelope layer acks every RMSG before looking at the inner kind, and
#: the worker's PING handler is a no-op, so the probe costs one
#: round-trip and nothing else.
_PING = "PING"

#: Circuit-breaker states (also the CIRCUIT trace sample encoding:
#: value = peer * 4 + state).
B_CLOSED, B_OPEN, B_HALF_OPEN = 0, 1, 2
_STATE_NAMES = {B_CLOSED: "closed", B_OPEN: "open", B_HALF_OPEN: "half-open"}


class _Transfer:
    """One in-flight reliable send awaiting acknowledgement."""

    __slots__ = ("seq", "dst", "kind", "payload", "body_bytes", "attempts",
                 "done", "parked", "timer")

    def __init__(self, seq: int, dst: int, kind: str, payload: Any,
                 body_bytes: int) -> None:
        self.seq = seq
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.body_bytes = body_bytes
        self.attempts = 0
        self.done = False
        self.parked = False
        #: a weak reference to the pending retransmit timer: a spent or
        #: never-fired timer (its host crashed) must not keep the transfer,
        #: and through it the channel, in a cycle with its event
        self.timer: Any = None


class _Breaker:
    """Per-peer circuit-breaker state."""

    __slots__ = ("state", "consecutive", "probe_delay", "opened_at",
                 "open_s", "opens", "probes", "probe_seq")

    def __init__(self) -> None:
        self.state = B_CLOSED
        self.consecutive = 0
        self.probe_delay = 0.0
        self.opened_at = 0.0
        self.open_s = 0.0    # total time spent open/half-open (closed spans)
        self.opens = 0       # times the breaker tripped
        self.probes = 0      # half-open probes sent
        self.probe_seq: int | None = None


class ReliableChannel:
    """Per-worker reliable transport; see module docstring."""

    def __init__(self, host: "WorkerProcess", timeout: float = 2e-3,
                 retries: int = 5, max_backoff: float | None = None,
                 breaker_threshold: int = 0) -> None:
        self.host = weakref.proxy(host)   # the worker owns its channel
        self.timeout = timeout
        self.retries = retries
        # Backoff clamp: the legacy ladder already tops out at
        # timeout * 2^retries, so the default cap equals that ceiling and
        # changes nothing; a tighter cap bounds the worst-case silence
        # after long blackouts (and the breaker's probe interval).
        self.max_backoff = (max_backoff if max_backoff is not None
                            else timeout * (1 << retries))
        #: consecutive retransmit timeouts before a peer's breaker trips;
        #: 0 disables circuit breaking entirely.
        self.breaker_threshold = breaker_threshold
        self._next_seq = 0
        self._pending: dict[int, _Transfer] = {}
        self._seen: dict[int, set[int]] = {}   # src -> delivered seqs
        self._pending_work = 0
        #: bumped whenever the state a stable log must hold before the next
        #: byte leaves has changed: a new pending transfer, a new receipt,
        #: a dead peer's transfers settled (acks only shrink ``_pending``
        #: and do not count).  The live runtime commits its write-ahead
        #: spool when this moves; the simulator never reads it.
        self.revision = 0
        self._breakers: dict[int, _Breaker] = {}
        # observability: the channel is built in start(), so host.sim and
        # its (optional) metrics registry are already attached
        m = host.sim.metrics
        if m is not None:
            self._m_retransmits = m.counter("reliable.retransmits")
            self._m_delay = m.histogram("reliable.retransmit_delay_s")
            self._m_breaker_opens = m.counter("reliable.breaker_opens")
            self._m_breaker_probes = m.counter("reliable.breaker_probes")
            self._m_breaker_open_s = m.histogram("reliable.breaker_open_s")
        else:
            self._m_retransmits = None
            self._m_delay = None
            self._m_breaker_opens = None
            self._m_breaker_probes = None
            self._m_breaker_open_s = None

    # -- sender side ---------------------------------------------------------

    def send(self, dst: int, kind: str, payload: Any,
             body_bytes: int) -> None:
        """Ship one message with at-least-once delivery to a live peer."""
        seq = self._next_seq
        self._next_seq += 1
        xf = _Transfer(seq, dst, kind, payload, body_bytes)
        self._pending[seq] = xf
        self.revision += 1
        if kind == _WORK:
            self._pending_work += 1
        br = self._breakers.get(dst)
        if br is not None and br.state != B_CLOSED:
            # routed-around peer: park instead of transmitting — the
            # transfer stays pending (WORK still counts as in flight) and
            # is released when the half-open probe closes the breaker
            xf.parked = True
            return
        self._transmit(xf)
        self._schedule(xf)

    def on_ack(self, seq: int) -> None:
        """An RACK arrived; settle the matching transfer (dups are no-ops)."""
        xf = self._pending.pop(seq, None)
        if xf is None:
            return
        xf.done = True
        if xf.kind == _WORK:
            self._pending_work -= 1
        br = self._breakers.get(xf.dst)
        if br is not None:
            br.consecutive = 0
            if br.state != B_CLOSED:
                # any ack proves the peer reachable again — the probe's,
                # or a late data ack racing past it
                self._close_breaker(xf.dst, br)

    def has_pending_work(self) -> bool:
        """True while any WORK transfer is unacknowledged (counts as active
        for termination detection: the piece is neither here nor there)."""
        return self._pending_work > 0

    def pending_to(self, pid: int) -> list[_Transfer]:
        """Unacknowledged transfers addressed to ``pid`` (test hook)."""
        return [xf for xf in self._pending.values() if xf.dst == pid]

    # -- receiver side -------------------------------------------------------

    def register(self, src: int, seq: int) -> bool:
        """Record a delivery; False when (src, seq) was already processed."""
        seen = self._seen.setdefault(src, set())
        if seq in seen:
            return False
        seen.add(seq)
        self.revision += 1
        host = self.host
        host.sim.note_reliable_delivery(host.pid, src, seq)
        return True

    def was_delivered(self, src: int, seq: int) -> bool:
        """Whether a transfer from ``src`` reached this node (stable log)."""
        return seq in self._seen.get(src, ())

    # -- internals -----------------------------------------------------------

    def _transmit(self, xf: _Transfer) -> None:
        host = self.host
        host.sim.transmit(sized(RMSG, host.pid, xf.dst,
                                (xf.seq, xf.kind, xf.payload),
                                xf.body_bytes + _ENVELOPE_BYTES))

    def _backoff(self, attempts: int) -> float:
        return min(self.timeout * (1 << min(attempts, self.retries)),
                   self.max_backoff)

    def _schedule(self, xf: _Transfer) -> None:
        xf.timer = weakref.ref(self.host.call_after(
            self._backoff(xf.attempts), lambda: self._retry(xf),
            tag=f"rexmit@{self.host.pid}"))

    def _retry(self, xf: _Transfer) -> None:
        if xf.done or xf.parked:
            return
        if self.host.sim.is_crashed(xf.dst):
            # perfect failure detection: consult ground truth instead of
            # burning the full retry ladder against a dead peer
            self.peer_crashed(xf.dst)
            return
        # Only a *repeat* timeout (the transfer was already retransmitted
        # and still got no ack) feeds the breaker: a first timeout is
        # routine under i.i.d. loss, and counting it would trip breakers
        # on healthy-but-lossy links whenever several independent
        # transfers get unlucky at once.
        if (self.breaker_threshold > 0 and xf.attempts >= 1
                and self._note_timeout(xf.dst)):
            return   # breaker tripped; this transfer is now parked
        if self._m_retransmits is not None:
            self._m_retransmits.inc()
            # the backoff that just elapsed (what _schedule armed last time)
            self._m_delay.observe(self._backoff(xf.attempts))
        xf.attempts += 1
        self.host.stats.retransmits += 1
        self._transmit(xf)
        self._schedule(xf)

    # -- circuit breaker -------------------------------------------------------

    def breaker_state(self, pid: int) -> int:
        """Current breaker state for ``pid`` (B_CLOSED when untracked)."""
        br = self._breakers.get(pid)
        return B_CLOSED if br is None else br.state

    def suspected_peers(self) -> set[int]:
        """Peers currently routed around (breaker open or half-open)."""
        return {pid for pid, br in self._breakers.items()
                if br.state != B_CLOSED}

    def breaker_snapshot(self) -> dict[int, dict[str, Any]]:
        """Per-peer breaker statistics for run reports.

        ``open_s`` includes the still-running open span of a breaker that
        has not closed by snapshot time; only such a breaker reads the
        clock, so a snapshot of a finished run needs no live substrate.
        """
        out: dict[int, dict[str, Any]] = {}
        for pid, br in sorted(self._breakers.items()):
            if br.opens == 0 and br.state == B_CLOSED:
                continue
            open_s = br.open_s
            if br.state != B_CLOSED:
                open_s += self.host.sim.queue.now - br.opened_at
            out[pid] = {"state": _STATE_NAMES[br.state], "opens": br.opens,
                        "probes": br.probes, "open_s": open_s}
        return out

    def _trace_breaker(self, peer: int, state: int) -> None:
        tracer = getattr(self.host, "tracer", None)
        if tracer is not None:
            from ..sim.trace import CIRCUIT
            tracer.record(self.host.sim.queue.now, self.host.pid, CIRCUIT,
                          float(peer * 4 + state))

    def _note_timeout(self, dst: int) -> bool:
        """Count one retransmit timeout against ``dst``; True if the
        breaker tripped (the caller's transfer must park, not resend)."""
        br = self._breakers.get(dst)
        if br is None:
            br = self._breakers[dst] = _Breaker()
        if br.state != B_CLOSED:
            # already routed around (a straggler timer fired late)
            return True
        br.consecutive += 1
        if br.consecutive < self.breaker_threshold:
            return False
        br.state = B_OPEN
        br.opens += 1
        br.opened_at = self.host.sim.queue.now
        br.probe_delay = self._backoff(0)
        self.host.stats.breaker_opens += 1
        for xf in self._pending.values():
            if xf.dst == dst and not xf.done:
                xf.parked = True
                timer = xf.timer and xf.timer()   # None once it fired
                if timer is not None:
                    timer.cancel()
                xf.timer = None
        if self._m_breaker_opens is not None:
            self._m_breaker_opens.inc()
        self._trace_breaker(dst, B_OPEN)
        host = self.host
        host.call_after(br.probe_delay, lambda: self._probe(dst),
                        tag=f"cb-probe@{host.pid}")
        host.peer_suspected(dst)
        return True

    def _probe(self, dst: int) -> None:
        """Half-open: ship one heartbeat PING at the peer."""
        br = self._breakers.get(dst)
        if br is None or br.state == B_CLOSED:
            return
        host = self.host
        if host.sim.is_crashed(dst):
            # the FD (ground truth / supervisor announcement) owns death;
            # settle through the normal crash path
            self.peer_crashed(dst)
            return
        # drop the previous unanswered probe so probes don't accumulate
        if br.probe_seq is not None:
            stale = self._pending.pop(br.probe_seq, None)
            if stale is not None:
                stale.done = True
        br.state = B_HALF_OPEN
        br.probes += 1
        if self._m_breaker_probes is not None:
            self._m_breaker_probes.inc()
        self._trace_breaker(dst, B_HALF_OPEN)
        seq = self._next_seq
        self._next_seq += 1
        xf = _Transfer(seq, dst, _PING, host.pid, 8)
        self._pending[seq] = xf
        br.probe_seq = seq
        self._transmit(xf)
        # no per-transfer retry for the probe: the breaker's own timer
        # decides — unanswered means back to open with a doubled (capped)
        # probe interval
        host.call_after(br.probe_delay, lambda: self._probe_check(dst),
                        tag=f"cb-check@{host.pid}")

    def _probe_check(self, dst: int) -> None:
        br = self._breakers.get(dst)
        if br is None or br.state != B_HALF_OPEN:
            return
        br.state = B_OPEN
        br.probe_delay = min(br.probe_delay * 2, self.max_backoff)
        self._trace_breaker(dst, B_OPEN)
        self.host.call_after(br.probe_delay, lambda: self._probe(dst),
                             tag=f"cb-probe@{self.host.pid}")

    def _close_breaker(self, dst: int, br: _Breaker) -> None:
        """Probe answered: stop routing around ``dst`` and flush the park."""
        now = self.host.sim.queue.now
        br.open_s += now - br.opened_at
        if self._m_breaker_open_s is not None:
            self._m_breaker_open_s.observe(now - br.opened_at)
        br.state = B_CLOSED
        br.consecutive = 0
        br.probe_seq = None
        self._trace_breaker(dst, B_CLOSED)
        released = [xf for xf in self._pending.values()
                    if xf.dst == dst and xf.parked and not xf.done]
        for xf in released:
            xf.parked = False
            xf.attempts = 0   # the peer is back: restart the ladder fresh
            self._transmit(xf)
            self._schedule(xf)
        self.host.peer_recovered(dst)

    def peer_crashed(self, pid: int) -> None:
        """Settle every transfer to a crashed peer and notify the host.

        WORK pieces the peer never logged are recovered (merged back by the
        host); everything else — and WORK the peer *did* receive before
        crashing — is abandoned.  The retry timers reach this through the
        perfect-FD consult above; the live runtime's failure detector calls
        it directly when the supervisor announces a death.  Which log gets
        peeked is the environment's business
        (:meth:`repro.sim.engine.Simulator.peer_logged` — the simulator
        reads the peer's in-memory dedup set, the live environment reads
        the on-disk spool the dead process left behind).
        """
        host = self.host
        self.revision += 1
        br = self._breakers.get(pid)
        if br is not None and br.state != B_CLOSED:
            # the suspicion resolved into a death: close the books (the
            # open span ends here) without releasing anything — the
            # settlement below owns every pending transfer
            br.open_s += host.sim.queue.now - br.opened_at
            br.state = B_CLOSED
            br.probe_seq = None
        recovered = []
        for xf in [x for x in self._pending.values() if x.dst == pid]:
            del self._pending[xf.seq]
            xf.done = True
            if xf.kind == _WORK:
                self._pending_work -= 1
                if not host.sim.peer_logged(pid, host.pid, xf.seq):
                    recovered.append(xf.payload[0])  # the work piece
        host.channel_peer_dead(pid, recovered)


__all__ = ["ReliableChannel", "RMSG", "RACK", "B_CLOSED", "B_OPEN",
           "B_HALF_OPEN"]
