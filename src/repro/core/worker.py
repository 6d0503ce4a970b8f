"""Protocol-agnostic worker: compute quanta, work transfer, bound gossip.

A :class:`WorkerProcess` alternates compute quanta (``quantum`` work units,
computed by its substrate's ``compute``) with message handling. Between
quanta (and whenever it is idle) its inbox drains; protocol subclasses react
in :meth:`handle` / :meth:`on_idle` / :meth:`on_work_received`.

Shared-knowledge diffusion (the B&B upper bound) is implemented here once
for all protocols as monotone gossip over protocol-chosen targets: a worker
that improves its bound pushes it to ``gossip_targets()``; a received value
that improves the local bound is forwarded onward; stale values die
immediately. For UTS there is nothing to share and the machinery is inert.

Fault tolerance is implemented here once as well, and is entirely inert in
clean runs (``sim.faults is None`` gates every hook):

* all sends route through a :class:`~repro.core.reliable.ReliableChannel`
  (exactly-once over lossy links, crash detection on its retry timers);
* per-peer WORK counters (``sent_to`` / ``recv_from``) let the termination
  waves exclude traffic with dead peers pair-consistently;
* a generic repair protocol — ``DEAD`` gossip, ``ATTACH`` (orphan joins
  its nearest live static ancestor) and ``ADOPT`` (an adopter claims the
  live descendants of a dead child) — re-knits the detection/overlay tree
  around crashed nodes. Protocols expose their tree through the
  ``static_parent`` / ``static_children`` / link hooks below; because
  death knowledge is true-only (perfect detection) every node computes
  the same unique nearest-live-ancestor assignment, so the repair is
  idempotent and convergent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..apps.base import Application
from ..sim.messages import Message, sized
from ..sim.process import SimProcess
from ..work.base import WorkItem
from .reliable import RACK, RMSG, ReliableChannel
from .termination import TERM

#: Message kinds owned by the base worker.
WORK = "WORK"
BOUND = "BOUND"

#: Fault-protocol kinds (only ever on the wire when faults are active).
DEAD = "DEAD"        # gossip: payload = a crashed pid
ATTACH = "ATTACH"    # orphan -> new parent: (my subtree size, my dead set)
ADOPT = "ADOPT"      # adopter -> orphan:    (my subtree size, my dead set)
PING = "PING"        # liveness probe (the reliable channel does the work)

#: Kinds a *terminated* node still answers, with TERM — a late requester
#: whose path to the root crashed learns termination this way.
_TERM_REPLY = frozenset({"REQ", "STEAL", ATTACH})


@dataclass(slots=True)
class WorkerConfig:
    """Tunables common to every protocol."""

    quantum: int = 64            # work units per compute quantum
    gossip_bounds: bool = True   # diffuse shared-knowledge improvements
    seed: int = 0                # protocol randomness root
    speed: float = 1.0           # relative CPU speed (heterogeneity knob)
    ack_timeout: float = 2e-3    # reliable-channel base retransmit delay
    ack_retries: int = 5         # backoff doublings before the delay caps
    #: hard ceiling on any retransmit/probe backoff delay; None keeps the
    #: legacy ceiling of ack_timeout * 2^ack_retries
    ack_max_backoff: Optional[float] = None
    #: consecutive retransmit timeouts against one peer before its circuit
    #: breaker opens (the peer is then routed around until a heartbeat
    #: probe succeeds); 0 disables circuit breaking
    breaker_threshold: int = 4


class WorkerProcess(SimProcess):
    """Base class of every load-balancing protocol's worker."""

    def __init__(self, pid: int, app: Application, cfg: WorkerConfig,
                 has_initial_work: bool = False) -> None:
        super().__init__(pid)
        self.app = app
        self.cfg = cfg
        self.work: WorkItem = (app.initial_work() if has_initial_work
                               else app.empty_work())
        self.shared = app.make_shared()
        self.terminated = False
        #: graceful-leave state (live elastic membership): a leaving worker
        #: stops computing and acquiring, hands its pool up, and waits for
        #: its outstanding transfers to settle before departing
        self.leaving = False
        #: optional repro.sim.trace.Tracer; set by the harness, zero cost
        #: when absent
        self.tracer = None
        # observability (repro.obs): instruments cached at start() when the
        # simulator carries a registry; a single None check gates each
        # publishing site, so detached runs pay one dead branch at most
        self._metrics = None
        self._m_steal_requests = None
        self._m_steal_latency = None
        self._m_xfer_units = None
        self._m_xfer_bytes = None
        self._steal_req_time = -1.0   # first open request of an idle episode
        # fault-tolerance state; pure memory, only touched when a
        # FaultPlan is active (self._reliable is then non-None)
        self._reliable: Optional[ReliableChannel] = None
        self.dead: set[int] = set()
        #: peers currently routed around by the channel's circuit breaker
        #: (alive but unreachable/unresponsive — partitions, gray links);
        #: strictly disjoint from ``dead``: nothing is recovered or spliced
        #: for a suspect, and the dead-set waves never count one as dead
        self.suspect: set[int] = set()
        self.sent_to: dict[int, int] = {}    # pid -> WORK messages sent
        self.recv_from: dict[int, int] = {}  # pid -> WORK messages received
        #: WORK pieces from crashed peers that arrived after termination;
        #: dropped from the run but kept for the conservation accounting
        self.crash_dropped: list[WorkItem] = []

    # -- protocol hooks ---------------------------------------------------------

    def on_idle(self) -> None:
        """CPU free, no local work, not terminated: go find some."""

    def handle(self, msg: Message) -> None:
        """Protocol-specific message (anything but WORK/BOUND)."""

    def on_work_received(self, msg: Message) -> None:
        """After a WORK message was merged (clear request bookkeeping)."""

    def on_quantum_done(self, units: int) -> None:
        """After each compute quantum (serve queued requesters, etc.)."""

    def quantum_boundary_quiet(self) -> bool:
        """True iff :meth:`on_quantum_done` is a no-op in the current state
        — the protocol-side precondition of quantum fusion.

        The simulator's macro-event fast path (``Simulator.compute``)
        checks this once before fusing a run of
        quanta; interior boundaries then skip ``on_quantum_done`` entirely.
        That is sound only when the answer cannot change *during* the
        fused block: the state it depends on (queued requesters, pending
        lifelines, ...) must only ever mutate inside message/timer
        handlers, which provably cannot run mid-fusion. Protocols that
        cannot promise this keep the conservative default (False = never
        fuse).
        """
        return False

    def gossip_targets(self) -> list[int]:
        """Where to diffuse shared-knowledge improvements."""
        return []

    # -- repair hooks (protocols with a detection/overlay tree override) --------

    def static_parent(self, pid: int) -> int:
        """Original tree parent of ``pid`` (-1 at the root)."""
        return -1

    def static_children(self, pid: int):
        """Original tree children of ``pid``."""
        return ()

    def _repair_parent(self) -> int:
        """Current (possibly spliced) tree parent."""
        return -1

    def _current_children(self):
        """Current (possibly repaired) tree children."""
        return ()

    def _attach_size(self) -> float:
        """Subtree size advertised in ATTACH/ADOPT (0 = unknown)."""
        return 0

    def _set_parent_link(self, pid: int) -> None:
        """Point the tree parent link at ``pid`` (splice)."""

    def _add_child_link(self, pid: int, size: float) -> None:
        """Accept ``pid`` as an adopted tree child."""

    def _drop_child(self, pid: int) -> None:
        """Remove a crashed tree child from all bookkeeping."""

    def _on_new_parent(self, pid: int, size: float) -> None:
        """An ADOPT settled our parent link; resume protocol activity."""

    def peer_joined(self, pid: int, parent: int) -> None:
        """A new worker joined the overlay mid-run under ``parent`` (live
        elastic membership).  Inert for protocols without a tree."""

    def on_peer_dead(self, pid: int) -> None:
        """Protocol-specific cleanup for a crashed peer (any role)."""

    def on_peer_suspected(self, pid: int) -> None:
        """Protocol hook: route around ``pid`` until it recovers."""

    def on_peer_recovered(self, pid: int) -> None:
        """Protocol hook: ``pid`` answered the breaker probe — re-include."""

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if self.sim.faults is not None:
            self._reliable = ReliableChannel(
                self, self.cfg.ack_timeout, self.cfg.ack_retries,
                max_backoff=self.cfg.ack_max_backoff,
                breaker_threshold=self.cfg.breaker_threshold)
        m = self.sim.metrics
        if m is not None:
            from ..obs.registry import SIZE_EDGES
            self._metrics = m
            self._m_steal_requests = m.counter("steal.requests")
            self._m_quanta = m.counter("compute.quanta")
            self._m_units = m.counter("compute.units")
            self._m_steal_latency = m.histogram("steal.latency_s")
            self._m_xfer_units = m.histogram("work.transfer_units",
                                             SIZE_EDGES)
            self._m_xfer_bytes = m.histogram("work.transfer_bytes",
                                             SIZE_EDGES)
        # everything starts through the event loop so subclass start() code
        # runs for every process before the first quantum fires
        self.call_after(0.0, self._drain,
                        tag=f"kick@{self.pid}" if self.sim.debug else "")

    def finished(self) -> bool:
        return self.terminated

    def finish(self) -> None:
        """Record local termination (idempotent)."""
        if not self.terminated:
            self.terminated = True
            self.stats.finish_time = self.now
            if self.tracer is not None:
                from ..sim.trace import FINISH
                self.tracer.record(self.now, self.pid, FINISH)

    # -- graceful leave (live elastic membership) -------------------------------

    def begin_leave(self) -> None:
        """Start a graceful departure: stop computing and acquiring work.

        The pool drains through :meth:`leave_tick` (called by the live
        reactor) — handed to the current tree parent, the same direction a
        finished subtree's work report flows.  Idempotent; a no-op once
        terminated (nothing left to hand up)."""
        if self.leaving or self.terminated:
            return
        self.leaving = True
        self.on_leave()

    def on_leave(self) -> None:
        """Protocol hook: retract outstanding requests before departing."""

    def leave_tick(self) -> bool:
        """Advance the departure; True once it is safe to exit.

        Safe means: the pool is empty, no quantum is in flight, and every
        reliable transfer we initiated has been acknowledged — so each
        work piece provably changed hands (or never left: the spool's
        receive log lets the sender recover anything still unlogged)."""
        if self.terminated:
            return True
        if not self.work.is_empty() and not self._cpu_busy:
            self._hand_up()
        return (self.work.is_empty() and not self._cpu_busy
                and (self._reliable is None
                     or not self._reliable.has_pending_work()))

    def _hand_up(self) -> None:
        """Ship the whole pool to the current (possibly spliced) parent."""
        dst = self._repair_parent()
        if dst < 0 or dst == self.pid or dst in self.dead:
            return   # no live parent right now; retried next tick
        piece, self.work = self.work, self.app.empty_work()
        if piece.is_empty():
            self.work = piece
            return
        self.send_work(dst, piece, channel="leave")

    # -- compute loop -----------------------------------------------------------------

    def on_cpu_free(self) -> None:
        if self.terminated or self.leaving:
            return
        if not self.work.is_empty():
            # the substrate computes it: priced (and possibly fused with
            # the next ones) by the simulator, measured by the live runtime
            self.sim.compute(self)
        else:
            if self.tracer is not None:
                from ..sim.trace import IDLE
                self.tracer.record(self.now, self.pid, IDLE)
            self.on_idle()

    def _count_quantum(self, outcome) -> bool:
        """Book a quantum's units; False (having gone idle) if it had none."""
        if outcome.units <= 0:
            # a non-empty container that yields nothing is drained
            self.on_idle()
            return False
        self.stats.work_units += outcome.units
        if self._metrics is not None:
            self._m_quanta.inc()
            self._m_units.inc(outcome.units)
        return True

    def _quantum_done(self, units: int, improved: bool) -> None:
        self.sim.note_work_done()
        if self.tracer is not None:
            from ..sim.trace import QUANTUM
            self.tracer.record(self.now, self.pid, QUANTUM, units)
        if improved and self.cfg.gossip_bounds:
            self._gossip(exclude=-1)
        self.on_quantum_done(units)
        # the substrate's _drain now absorbs queued messages and re-enters
        # on_cpu_free, chaining the next quantum or idling.

    # -- work transfer ----------------------------------------------------------------

    def note_steal_request(self) -> None:
        """Count one work request (protocols call this, not the raw stat).

        Feeds ``stats.steals_attempted`` exactly as the old inline bumps
        did, plus — when a metrics registry is attached — the
        ``steal.requests`` counter and the start-of-episode timestamp the
        ``steal.latency_s`` histogram measures against (first open request
        of an idle episode to the next WORK arrival).
        """
        self.stats.steals_attempted += 1
        if self._metrics is not None:
            self._m_steal_requests.inc()
            if self._steal_req_time < 0.0:
                self._steal_req_time = self.now

    def send(self, dst: int, kind: str, payload: Any = None,
             body_bytes: int = 0) -> None:
        ch = self._reliable
        if ch is None:
            SimProcess.send(self, dst, kind, payload, body_bytes)
            return
        if dst in self.dead:
            return  # talking to the dead is pointless (WORK guarded earlier)
        ch.send(dst, kind, payload, body_bytes)

    def send_work(self, dst: int, piece: WorkItem, channel: str = "") -> None:
        """Ship a work piece; counted for the termination-detection waves."""
        if self._reliable is not None:
            if dst in self.dead:
                # never hand work to a peer known to be dead — keep it
                self.work.merge(piece)
                return
            self.sent_to[dst] = self.sent_to.get(dst, 0) + 1
        self.stats.work_msgs_sent += 1
        body = piece.encoded_bytes()
        if self._metrics is not None:
            self._m_xfer_units.observe(piece.amount())
            self._m_xfer_bytes.observe(body)
        self.send(dst, WORK, (piece, channel), body_bytes=body)

    def on_message(self, msg: Message) -> None:
        ch = self._reliable
        if ch is not None:
            if msg.kind == RACK:
                ch.on_ack(msg.payload)
                return
            if msg.kind == RMSG:
                seq, inner_kind, inner_payload = msg.payload
                if msg.src not in self.dead:
                    # transport ack: plain send, the envelope stops here
                    self.sim.transmit(sized(RACK, self.pid, msg.src, seq, 4))
                if not ch.register(msg.src, seq):
                    return  # duplicate delivery: already processed once
                msg = sized(inner_kind, msg.src, self.pid, inner_payload, 0)
        if self.tracer is not None:
            from ..sim.trace import MESSAGE
            self.tracer.record(self.now, self.pid, MESSAGE, 1.0)
        if self.terminated:
            if msg.kind == WORK:
                if ch is not None and msg.src in self.dead:
                    # a transfer the peer launched before crashing, landing
                    # after we terminated: the wave proof already excluded
                    # this pair, so drop it — but keep the piece visible to
                    # the conservation accounting
                    self.crash_dropped.append(msg.payload[0])
                    return
                # a correct protocol never terminates with work in flight;
                # losing it silently would corrupt results, so fail loudly
                from ..sim.errors import SimRuntimeError
                raise SimRuntimeError(
                    f"worker {self.pid} received WORK after termination")
            if ch is not None and msg.kind in _TERM_REPLY:
                # late requester cut off from the root by crashes: tell it
                self.send(msg.src, TERM, None)
            return
        if msg.kind == WORK:
            piece, _channel = msg.payload
            self.stats.work_msgs_received += 1
            self.stats.steals_successful += 1
            if ch is not None:
                self.recv_from[msg.src] = self.recv_from.get(msg.src, 0) + 1
            if self._metrics is not None and self._steal_req_time >= 0.0:
                self._m_steal_latency.observe(self.now - self._steal_req_time)
                self._steal_req_time = -1.0
            if self.tracer is not None:
                from ..sim.trace import TRANSFER
                self.tracer.record(self.now, self.pid, TRANSFER,
                                   float(msg.src))
            self.work.merge(piece)
            self.on_work_received(msg)
            return
        if msg.kind == BOUND:
            if self.shared is not None and self.app.absorb_value(
                    self.shared, msg.payload):
                self._gossip(exclude=msg.src)
            return
        if ch is not None:
            if msg.kind == DEAD:
                self.learn_dead(msg.payload)
                return
            if msg.kind == ATTACH:
                self._on_attach(msg)
                return
            if msg.kind == ADOPT:
                self._on_adopt(msg)
                return
            if msg.kind == PING:
                return  # the channel round-trip was the point
        self.handle(msg)

    def _gossip(self, exclude: int) -> None:
        if self.shared is None:
            return
        value = self.app.shared_value(self.shared)
        if value is None:
            return
        for t in self.gossip_targets():
            if t != exclude and t != self.pid:
                self.send(t, BOUND, value, body_bytes=8)

    # -- crash handling (never reached in clean runs) ---------------------------

    def channel_peer_dead(self, pid: int, recovered: list[WorkItem]) -> None:
        """The reliable channel detected a crashed peer.

        ``recovered`` holds the WORK pieces we sent it that provably never
        arrived (absent from its receive log): merge them back — the work
        changes hands back to us, conservation intact.
        """
        for piece in recovered:
            self.work.merge(piece)
        self.learn_dead(pid)
        if recovered and not self._cpu_busy and not self.terminated:
            self._drain()  # the recovered work restarts the compute loop

    def peer_suspected(self, pid: int) -> None:
        """The channel's circuit breaker opened on ``pid``: exclude it from
        victim selection and overlay re-picks until the probe succeeds."""
        if pid in self.suspect or pid in self.dead:
            return
        self.suspect.add(pid)
        self.on_peer_suspected(pid)

    def peer_recovered(self, pid: int) -> None:
        """The breaker probe got through: ``pid`` is reachable again."""
        if pid not in self.suspect:
            return
        self.suspect.discard(pid)
        self.on_peer_recovered(pid)

    def learn_dead(self, pid: int, relay: bool = True) -> None:
        """Absorb the (true) fact that ``pid`` crashed; idempotent."""
        if pid == self.pid or pid in self.dead:
            return
        self.dead.add(pid)
        self.suspect.discard(pid)  # the suspicion resolved into a death
        self._react_dead(pid)
        if relay:
            p = self._repair_parent()
            if p >= 0 and p not in self.dead:
                self.send(p, DEAD, pid, body_bytes=8)

    def _absorb_dead(self, pids) -> None:
        """Dead-set news from a wave payload (root-originated: no relay)."""
        for pid in pids:
            self.learn_dead(pid, relay=False)

    def _react_dead(self, pid: int) -> None:
        if pid == self._repair_parent():
            self._splice_up()
        if pid in self._current_children():
            self._drop_child(pid)
        if self._nearest_live_ancestor_of(pid) == self.pid:
            self._adopt_descendants(pid)
        self.on_peer_dead(pid)

    def _nearest_live_ancestor_of(self, pid: int) -> int:
        p = self.static_parent(pid)
        while p > 0 and p in self.dead:
            p = self.static_parent(p)
        return p

    def join_overlay(self) -> None:
        """Freshly joined node (live elastic membership): announce
        ourselves to the nearest live static ancestor — normally the
        assigned graft parent, unless it died while we were spawning.
        Same ATTACH/ADOPT exchange as a post-crash splice, but joining is
        not a repair, so the repair counter stays untouched."""
        np = self._nearest_live_ancestor_of(self.pid)
        self._set_parent_link(np)
        self.send(np, ATTACH,
                  (self._attach_size(), tuple(sorted(self.dead))),
                  body_bytes=16 + 8 * len(self.dead))

    def _splice_up(self) -> None:
        """Our parent died: re-attach to the nearest live static ancestor
        (the root cannot crash, so one always exists)."""
        np = self._nearest_live_ancestor_of(self.pid)
        self._set_parent_link(np)
        self.stats.repairs += 1
        if self.tracer is not None:
            from ..sim.trace import REPAIR
            self.tracer.record(self.now, self.pid, REPAIR, np)
        self.send(np, ATTACH,
                  (self._attach_size(), tuple(sorted(self.dead))),
                  body_bytes=16 + 8 * len(self.dead))

    def _adopt_descendants(self, dead_pid: int) -> None:
        """Claim the live static descendants of a dead child (recursing
        through chains of dead nodes)."""
        for g in self.static_children(dead_pid):
            if g in self.dead:
                self._adopt_descendants(g)
            elif self.terminated:
                # adopting into a terminated subtree means one thing only:
                # the orphan missed the news
                self.send(g, TERM, None)
            elif g not in self._current_children():
                self._add_child_link(g, 0)
                self.stats.repairs += 1
                if self.tracer is not None:
                    from ..sim.trace import REPAIR
                    self.tracer.record(self.now, self.pid, REPAIR, g)
                self.send(g, ADOPT,
                          (self._attach_size(), tuple(sorted(self.dead))),
                          body_bytes=16 + 8 * len(self.dead))

    def _on_attach(self, msg: Message) -> None:
        size, dead = msg.payload
        for d in dead:
            self.learn_dead(d)  # the orphan may know deaths we missed
        if msg.src in self.dead:
            return  # raced with the orphan's own crash
        if msg.src not in self._current_children():
            self._add_child_link(msg.src, size)
            self.stats.repairs += 1
        # answer with our size so the orphan's sharing fractions stay sane
        self.send(msg.src, ADOPT,
                  (self._attach_size(), tuple(sorted(self.dead))),
                  body_bytes=16 + 8 * len(self.dead))

    def _on_adopt(self, msg: Message) -> None:
        size, dead = msg.payload
        # the adopter sits toward the root and already gossips these
        for d in dead:
            self.learn_dead(d, relay=False)
        if msg.src in self.dead:
            return
        if msg.src != self._repair_parent():
            self._set_parent_link(msg.src)
            self.stats.repairs += 1
        self._on_new_parent(msg.src, size)

    def _counters_vs(self, dead: frozenset) -> tuple[int, int, bool]:
        """Wave counters excluding traffic with dead peers (pair-consistent
        with the exclusion every other live node applies)."""
        st = self.stats
        s = st.work_msgs_sent
        r = st.work_msgs_received
        for p, c in self.sent_to.items():
            if p in dead:
                s -= c
        for p, c in self.recv_from.items():
            if p in dead:
                r -= c
        active = (not self.work.is_empty() or self.cpu_busy
                  or (self._reliable is not None
                      and self._reliable.has_pending_work()))
        return s, r, active


__all__ = ["WorkerProcess", "WorkerConfig", "WORK", "BOUND", "DEAD",
           "ATTACH", "ADOPT", "PING"]
