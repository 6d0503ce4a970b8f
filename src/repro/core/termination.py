"""Wave-based distributed termination detection (four-counter method).

Used where the pure tree-request argument is not enough: BTD (bridges let
work re-enter "exhausted" subtrees) and RWS (no structure at all). A
spanning tree carries verification waves initiated by the root:

* ``WAVE`` floods down the tree; each node answers ``WAVE_R`` up once all
  its children answered, aggregating (work messages sent, work messages
  received, anyone active);
* a wave is *clean* when totals satisfy S == R and nobody was active;
* the root terminates after two consecutive clean waves with identical S —
  Mattern's rule: equal counters across both waves prove no transfer
  happened in between, and S == R proves no grant is in flight, so global
  quiescence held throughout.

Under fault injection (``sim.faults`` set) the waves harden themselves;
none of this costs anything in clean runs, whose message formats and event
sequences stay bit-for-bit identical:

* ``WAVE`` additionally carries the root's current *dead set* and
  ``WAVE_R`` a count of the live nodes reached. A wave is only clean when
  that count equals ``n - |dead|`` (**coverage**): a live node the wave
  missed — e.g. an orphan whose parent crashed mid-splice — keeps the wave
  dirty, so termination cannot be declared while anyone is unaccounted
  for. Two consecutive clean waves must also agree on the dead set.
* per-node counters exclude traffic exchanged with dead peers (both sides
  of each pair consistently, using per-peer counters), so work that died
  with its owner cannot unbalance S and R forever;
* a node whose parent died answers the wave to whoever actually sent it
  (its adopter), and the root aborts a wave by timeout when a crash ate
  part of the flood, retrying with its updated dead set;
* ``active`` includes unacknowledged WORK transfers (the piece is neither
  counted at the sender nor the receiver while in flight on the reliable
  channel).

The tests attack this with random latency jitter, adversarial bridges,
message loss/duplication and crash-stop failures; a false positive would
surface as lost work (count mismatch) or a WORK message after termination
(a hard simulator error).
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from ..sim.messages import Message
from ..sim.process import SimProcess, weak_callback

WAVE = "WAVE"
WAVE_R = "WAVE_R"
TERM = "TERM"

#: (work_msgs_sent, work_msgs_received, active)
Counters = tuple[int, int, bool]


class TerminationWaves:
    """Per-node wave component; the root drives, everyone relays.

    Args:
        host: the process this service sends/receives through. It is
            held weakly, and so is every callback below that is one of
            its methods (:func:`~repro.sim.process.weak_callback`).
        parent: tree parent pid (-1 at the root).
        children: tree children pids.
        get_counters: samples this node's (sent, received, active).
        on_terminate: called exactly once on every node when TERM arrives
            (or, at the root, when it decides).
        should_wave: root-only predicate — keep waving while it holds.
        retry_delay: pause between inconclusive waves (virtual seconds).
        counters_vs: fault-mode sampler — like ``get_counters`` but
            excluding traffic with the given frozenset of dead pids.
        absorb_dead: fault-mode callback notifying the host of dead pids
            learnt from a wave payload (no relay needed: the news came
            from the root).
        n_total: total process count, needed for wave coverage checks in
            fault mode.
    """

    def __init__(self, host: SimProcess, parent: int, children: list[int],
                 get_counters: Callable[[], Counters],
                 on_terminate: Callable[[], None],
                 should_wave: Optional[Callable[[], bool]] = None,
                 retry_delay: float = 2e-3,
                 counters_vs: Optional[
                     Callable[[frozenset], Counters]] = None,
                 absorb_dead: Optional[Callable[[tuple], None]] = None,
                 n_total: int = 0) -> None:
        self.host = weakref.proxy(host)
        self.parent = parent
        self.children = list(children)
        self.get_counters = weak_callback(get_counters, host)
        self.on_terminate = weak_callback(on_terminate, host)
        self.should_wave = weak_callback(should_wave or (lambda: True), host)
        self.retry_delay = retry_delay
        self.counters_vs = weak_callback(counters_vs, host)
        self.absorb_dead = weak_callback(absorb_dead, host)
        self.n_total = n_total
        self.is_root = parent < 0
        self.wave_seq = 0
        self._collecting = False
        self._acc_s = 0
        self._acc_r = 0
        self._acc_active = False
        self._acc_n = 0                       # live nodes covered (faults)
        self._waiting: set[int] = set()
        self._wave_dead: frozenset = frozenset()
        self._wave_from = parent              # who to answer this wave to
        self._answered_seq = -1
        self._last_answer: Optional[tuple] = None
        self._last_clean_s: Optional[int] = None
        self._last_clean_dead: Optional[frozenset] = None
        self._retry_pending = False
        self._backoff = 1.0
        self.terminated = False
        self.waves_run = 0
        # observability (root only): resolved lazily on the first wave —
        # the component is built before the host joins a simulator
        self._m_waves = None
        self._m_roundtrip = None
        self._wave_t0 = 0.0

    # -- root API --------------------------------------------------------------

    def root_try(self) -> None:
        """Root: start a verification wave if none is in flight."""
        if not self.is_root or self._collecting or self.terminated:
            return
        if getattr(self.host, "suspect", None):
            # island-safety: peers routed around by a circuit breaker are
            # alive but unreachable (partition, gray link) — a wave now
            # could not cover them and would only churn until abort. Keep
            # the retry timer alive instead; it re-enters here until the
            # suspicion resolves (heal via peer_recovered, or death).
            self._backoff = min(self._backoff * 2.0, 64.0)
            self._schedule_retry()
            return
        if not self.should_wave():
            return
        self.wave_seq += 1
        self.waves_run += 1
        m = self.host.sim.metrics if self.host.sim is not None else None
        if m is not None:
            if self._m_waves is None:
                self._m_waves = m.counter("term.waves")
                self._m_roundtrip = m.histogram("term.wave_roundtrip_s")
            self._m_waves.inc()
            self._wave_t0 = self.host.now
        self._begin_collect()
        if self._collecting and self._faulted():
            # a crash can eat part of the flood; time the wave out and
            # retry with whatever the root has learnt in the meantime
            self._schedule_abort(self.wave_seq)

    def declare(self) -> None:
        """Declare termination directly (protocols with their own proof)."""
        self._terminate()

    # -- overlay repair hooks (fault mode) -------------------------------------

    def child_dead(self, pid: int) -> None:
        """A wave child crashed: stop expecting its answers."""
        if pid in self.children:
            self.children.remove(pid)
        if self._collecting:
            self._waiting.discard(pid)
            if not self._waiting:
                self._complete()

    def add_child(self, pid: int) -> None:
        """Adopt a wave child (it joins from the *next* wave onward)."""
        if pid not in self.children:
            self.children.append(pid)

    def note_join(self) -> None:
        """A worker joined the fleet (live elastic membership): coverage
        must expect one more answer from the next wave onward.  A wave in
        flight simply comes up short and retries — the same safe direction
        as a mid-wave crash."""
        self.n_total += 1

    def set_parent(self, pid: int) -> None:
        """Re-parent after a splice (the root never re-parents)."""
        self.parent = pid

    # -- message plumbing ----------------------------------------------------------

    def handles(self, kind: str) -> bool:
        return kind in (WAVE, WAVE_R, TERM)

    def handle(self, msg: Message) -> bool:
        if msg.kind == WAVE:
            payload = msg.payload
            if isinstance(payload, tuple):       # fault mode: (seq, dead)
                seq, dead = payload
                if self.absorb_dead is not None:
                    self.absorb_dead(dead)
                if seq <= self.wave_seq:
                    # duplicate or stale flood (an adopter re-floods after
                    # a mid-wave splice, or an aborted wave's tail arrives
                    # late): repeat the recorded answer, never re-collect
                    if self._answered_seq == seq and self._last_answer:
                        self.host.send(msg.src, WAVE_R, self._last_answer,
                                       body_bytes=32)
                    return True
                self.wave_seq = seq
                self._wave_dead = frozenset(dead)
                self._wave_from = msg.src
            else:
                self.wave_seq = payload
            self._begin_collect()
            return True
        if msg.kind == WAVE_R:
            payload = msg.payload
            if len(payload) == 5:                # fault mode: + node count
                seq, s, r, active, count = payload
            else:
                seq, s, r, active = payload
                count = 0
            if seq != self.wave_seq or not self._collecting:
                return True  # stale reply from an aborted wave
            self._acc_s += s
            self._acc_r += r
            self._acc_active = self._acc_active or active
            self._acc_n += count
            self._waiting.discard(msg.src)
            if not self._waiting:
                self._complete()
            return True
        if msg.kind == TERM:
            self._terminate()
            return True
        return False

    # -- internals -----------------------------------------------------------------

    def _faulted(self) -> bool:
        sim = self.host.sim
        return sim is not None and sim.faults is not None

    def _begin_collect(self) -> None:
        self._collecting = True
        if self._faulted():
            if self.is_root:
                self._wave_dead = frozenset(getattr(self.host, "dead", ()))
            s, r, active = self.counters_vs(self._wave_dead)
            self._acc_n = 1
            payload: object = (self.wave_seq, tuple(sorted(self._wave_dead)))
            body = 8 + 8 * len(self._wave_dead)
        else:
            s, r, active = self.get_counters()
            payload = self.wave_seq
            body = 8
        self._acc_s, self._acc_r, self._acc_active = s, r, active
        self._waiting = set(self.children)
        for c in self.children:
            self.host.send(c, WAVE, payload, body_bytes=body)
        if not self._waiting:
            self._complete()

    def _complete(self) -> None:
        self._collecting = False
        faulted = self._faulted()
        if not self.is_root:
            if faulted:
                answer = (self.wave_seq, self._acc_s, self._acc_r,
                          self._acc_active, self._acc_n)
                self._answered_seq = self.wave_seq
                self._last_answer = answer
                self.host.send(self._wave_from, WAVE_R, answer,
                               body_bytes=32)
            else:
                self.host.send(self.parent, WAVE_R,
                               (self.wave_seq, self._acc_s, self._acc_r,
                                self._acc_active), body_bytes=24)
            return
        if self._m_roundtrip is not None:
            self._m_roundtrip.observe(self.host.now - self._wave_t0)
        clean = (not self._acc_active) and self._acc_s == self._acc_r
        if faulted:
            dead_now = frozenset(getattr(self.host, "dead", ()))
            # coverage: every live node must have answered, and the wave's
            # dead set must still be the whole truth
            clean = (clean and self._acc_n == self.n_total - len(dead_now)
                     and self._wave_dead == dead_now)
            confirmed = (clean and self._last_clean_s == self._acc_s
                         and self._last_clean_dead == self._wave_dead)
        else:
            confirmed = clean and self._last_clean_s == self._acc_s
        if confirmed:
            self._terminate()
            return
        if clean:
            self._last_clean_s = self._acc_s
            self._last_clean_dead = self._wave_dead
            self._backoff = 1.0  # confirmation wave should follow promptly
        else:
            self._last_clean_s = None
            self._last_clean_dead = None
            # exponential backoff: an active system does not need the root
            # to keep flooding verification waves
            self._backoff = min(self._backoff * 2.0, 64.0)
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        if self._retry_pending or self.terminated:
            return
        self._retry_pending = True

        def retry() -> None:
            self._retry_pending = False
            self.root_try()

        self.host.call_after(self.retry_delay * self._backoff, retry,
                             tag=f"wave-retry@{self.host.pid}")

    def _schedule_abort(self, seq: int) -> None:
        def fire() -> None:
            if self.terminated or not self._collecting:
                return
            if self.wave_seq != seq:
                return
            self._collecting = False
            self._backoff = min(self._backoff * 2.0, 64.0)
            self._schedule_retry()

        # generously above the channel's crash-detection latency so the
        # abort only fires for genuinely stuck waves
        self.host.call_after(max(16 * self.retry_delay, 40e-3) *
                             self._backoff, fire,
                             tag=f"wave-abort@{self.host.pid}")

    def _terminate(self) -> None:
        if self.terminated:
            return
        self.terminated = True
        for c in self.children:
            self.host.send(c, TERM, None)
        self.on_terminate()


__all__ = ["TerminationWaves", "WAVE", "WAVE_R", "TERM"]
