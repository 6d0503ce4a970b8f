"""The overlay-centric load-balancing protocol — the paper's contribution.

Protocol sketch (paper §II, DESIGN.md §7). Peers form a tree (TD/TR),
optionally extended with one random bridge per node (BTD). Work starts at
the root and flows along overlay edges; transferred amounts are
proportional to overlay subtree sizes.

An idle node searches **down first**: it probes its children sequentially,
one at a time in uniformly random order. A probed child that has work
answers with a subtree-proportional share at once; an idle child keeps the
probe queued while it hunts for work in its own subtree, and the probe
resolves either with work or with the child's own *upward request* — the
definitive "my whole subtree is finished" signal, which supersedes the
queued probe ("the parent needs not request that child"). Only when every
child is known-exhausted does the node send its single upward request,
which stays queued at the parent until work (or termination) arrives. In
parallel (BTD) each idle node keeps one asynchronous *bridge* request
outstanding; bridge requests also queue at their target. Whenever a node
with queued requests obtains work it serves them all,
subtree-proportionally, in arrival order: idle nodes "should not be
selfish" — they acquire enough work to serve their neighbourhood,
implicitly forming the paper's cooperative cluster of idle nodes.

Termination: an upward request signals a completed down phase, so when the
root is idle and every child has an upward request queued, the system is
*probably* finished — bridges (and late work deep in a subtree) can make
the signal stale, which the paper handles with aggregated work-request
accounting. We implement that accounting as the explicit four-counter
verification waves of :mod:`repro.core.termination` (with exponential
backoff between inconclusive waves): the root only declares termination
after two consecutive clean waves over the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..apps.base import Application
from ..overlay.bridges import BridgedTreeOverlay
from ..overlay.convergecast import SizeService
from ..overlay.tree import TreeOverlay
from ..sim.messages import Message
from ..sim.rng import RngStream
from ..work.sharing import LinkKind, ShareContext, get_policy
from .config import OCLBConfig
from .termination import TerminationWaves
from .worker import PING, WorkerConfig, WorkerProcess

REQ = "REQ"
NOWORK = "NOWORK"
WITHDRAW = "WITHDRAW"

#: Requester-side link labels carried by REQ and echoed in WORK channels.
UP = "up"          # request to my parent (queued there)
DOWN = "down"      # probe to one of my children (answered immediately)
BRIDGE = "bridge"  # asynchronous request over my bridge edge (queued)

_LINK_OF = {UP: LinkKind.TO_CHILD,      # an 'up' requester is my child
            DOWN: LinkKind.TO_PARENT,   # a 'down' requester is my parent
            BRIDGE: LinkKind.BRIDGE}


@dataclass(slots=True)
class _Pending:
    """A queued work request waiting for this node to have work."""

    pid: int
    link: str            # UP or BRIDGE (DOWN probes are never queued)
    subtree: int         # requester's subtree size (bridges carry it)


class OverlayWorker(WorkerProcess):
    """One peer of the overlay-centric protocol."""

    def __init__(self, pid: int, app: Application, cfg: WorkerConfig,
                 overlay: Union[TreeOverlay, BridgedTreeOverlay],
                 oclb: Optional[OCLBConfig] = None,
                 sharing: str = "proportional") -> None:
        super().__init__(pid, app, cfg, has_initial_work=(pid == 0))
        self.oclb = oclb or OCLBConfig()
        if isinstance(overlay, BridgedTreeOverlay):
            self.tree = overlay.tree
            self.bridge_target = overlay.bridge_of(pid)
            self.bridged = True
        else:
            self.tree = overlay
            self.bridge_target = None
            self.bridged = False
        self.parent = self.tree.parent[pid]
        self.children = list(self.tree.children[pid])
        self.policy = get_policy(sharing)
        self.rng = RngStream(cfg.seed, "oclb", pid)

        # subtree sizes: distributed converge-cast or instant (ablation);
        # in capacity-aware mode a node contributes its CPU speed instead
        # of 1, so shares track aggregate capacity (heterogeneity extension)
        if self.oclb.capacity_aware and not self.oclb.convergecast:
            from ..sim.errors import SimConfigError
            raise SimConfigError("capacity_aware needs the converge-cast "
                                 "bootstrap (capacities are local knowledge)")
        weight = cfg.speed if self.oclb.capacity_aware else 1.0
        self.sizes = SizeService(self, self.tree, on_ready=self._on_ready,
                                 weight=weight)
        self.child_sizes: dict[int, float] = {}
        self.ready = False
        if not self.oclb.convergecast:
            self.sizes.my_size = self.tree.subtree_size[pid]
            self.sizes.parent_size = (None if pid == 0 else
                                      self.tree.subtree_size[self.parent])
            self.child_sizes = {c: self.tree.subtree_size[c]
                                for c in self.children}
            self.sizes.ready = True

        # search state
        self.R: set[int] = set()           # children with queued upward REQs
        self.pending: list[_Pending] = []  # queued UP/BRIDGE requesters
        self.probe_target: Optional[int] = None
        self.probed: set[int] = set()      # children probed this round
        self.up_outstanding = False
        self.bridge_outstanding = False
        self._reprobe_pending = False

        self.waves = TerminationWaves(
            host=self, parent=self.parent, children=self.children,
            get_counters=self._counters, on_terminate=self.finish,
            should_wave=self._root_trigger, retry_delay=self.oclb.wave_retry,
            counters_vs=self._counters_vs, absorb_dead=self._absorb_dead,
            n_total=self.tree.n)
        self._bridge_rng: Optional[RngStream] = None  # lazy, repairs only

    # -- bootstrap ------------------------------------------------------------

    def start(self) -> None:
        super().start()
        if self.oclb.convergecast:
            self.call_after(0.0, self.sizes.start, tag=f"sizes@{self.pid}")
            if self.sim.faults is not None:
                # the converge-cast only sends child -> parent, so a parent
                # cannot notice a crashed child by itself: probe the
                # stragglers until the bootstrap completes
                self.call_after(8 * self.cfg.ack_timeout,
                                self._bootstrap_sweep,
                                tag=f"sizes-sweep@{self.pid}")
        else:
            self.ready = True

    def _bootstrap_sweep(self) -> None:
        if self.terminated or self.sizes.ready:
            return
        for c in self.sizes.waiting_children():
            if c in self.dead:
                self.sizes.child_dead(c)
            else:
                self.send(c, PING, None)
        self.call_after(8 * self.cfg.ack_timeout, self._bootstrap_sweep,
                        tag=f"sizes-sweep@{self.pid}")

    def _on_ready(self) -> None:
        self.ready = True
        if self._reliable is not None:
            # adopted children missed the static SIZE_DOWN cascade; a
            # repeat to everyone is idempotent
            from ..overlay.convergecast import SIZE_DOWN
            for c in self.children:
                self.send(c, SIZE_DOWN, self.sizes.my_size, body_bytes=8)
        self._serve_pending()
        self._search()

    @property
    def t_self(self) -> int:
        """Own subtree size (or capacity, in capacity-aware mode)."""
        return self.sizes.my_size or 1

    # -- idle search (paper §II-A) ------------------------------------------------

    def on_idle(self) -> None:
        self._search()

    def _search(self) -> None:
        """Ask for work wherever a request is due; a no-op when none is.

        Runs at the end of the REQ / WITHDRAW / NOWORK handlers and the
        membership hooks, whenever the CPU goes free without work, and on
        the reprobe timer. Most calls find every request already
        outstanding, so the cheap checks come first and a no-op costs a
        few attribute reads.
        """
        if (self._cpu_busy or not self.ready or self.terminated
                or self.leaving or not self.work.is_empty()):
            return
        if (not self.bridge_outstanding and self.bridged
                and self.bridge_target is not None):
            self.bridge_outstanding = True
            self.note_steal_request()
            self.send(self.bridge_target, REQ, (BRIDGE, self.t_self),
                      body_bytes=8)
        if self.probe_target is None:
            # a leaf — most nodes of a wide tree — has no child to probe
            children = self.children
            candidates = [c for c in children
                          if c not in self.R and c not in self.probed
                          and c not in self.suspect] if children else None
            if candidates:
                self.probe_target = self.rng.choice(candidates)
                self.probed.add(self.probe_target)
                self.note_steal_request()
                self.send(self.probe_target, REQ, (DOWN, self.t_self),
                          body_bytes=8)
            else:
                # down phase round complete: every child is idle (NOWORK)
                # or known-exhausted — request the parent "at last" (the
                # request stays queued there), then, while still idle, keep
                # probing in fresh rounds after a short pause
                if self.parent >= 0 and not self.up_outstanding:
                    self.up_outstanding = True
                    self.note_steal_request()
                    self.send(self.parent, REQ, (UP, self.t_self),
                              body_bytes=8)
                self._schedule_reprobe()
        if self.pid == 0:
            self._root_check()

    def _schedule_reprobe(self) -> None:
        """Start a fresh down-phase round after ``probe_retry`` seconds."""
        if self._reprobe_pending or self.terminated or self.leaving:
            return
        if self.R.issuperset(self.children):
            return  # nothing to probe; their upward requests sit here anyway

        def fire() -> None:
            self._reprobe_pending = False
            self.probed.clear()
            self._search()

        self._reprobe_pending = True
        self.call_after(self.oclb.probe_retry, fire,
                        tag=f"reprobe@{self.pid}")

    # -- message handling ----------------------------------------------------------

    def handle(self, msg: Message) -> None:
        # the search traffic first: REQ, WITHDRAW and NOWORK are nine in
        # ten of the messages that reach here on a message-bound run (the
        # kinds are disjoint, so the order decides nothing but the cost)
        kind = msg.kind
        if kind == REQ:
            self._on_request(msg)
        elif kind == WITHDRAW:
            # the requester found work elsewhere; its queued request here
            # is stale — forget it (it will re-request when idle again)
            self.pending = [e for e in self.pending if e.pid != msg.src]
            self.R.discard(msg.src)
            self._search()
        elif kind == NOWORK:
            if msg.src == self.probe_target:
                self.probe_target = None
                self._search()
        elif self.sizes.handles(kind):
            if self.sizes.handle(msg):
                from ..overlay.convergecast import SIZE_UP
                if kind == SIZE_UP:
                    self.child_sizes[msg.src] = msg.payload
        elif self.waves.handles(kind):
            self.waves.handle(msg)

    def _on_request(self, msg: Message) -> None:
        link, req_subtree = msg.payload
        entry = _Pending(pid=msg.src, link=link, subtree=req_subtree)
        if link == DOWN:
            # a probe from our parent: answered immediately, never queued
            if not (self.ready and self._try_serve(entry)):
                self.send(msg.src, NOWORK, None)
            return
        if link == UP:
            # the child's upward request resolves our probe to it, if any
            self.R.add(msg.src)
            if self.probe_target == msg.src:
                self.probe_target = None
        if not (self.ready and self._try_serve(entry)):
            self.pending.append(entry)
        # known-exhausted children change the search frontier; re-evaluate
        self._search()

    def on_work_received(self, msg: Message) -> None:
        channel = msg.payload[1]
        if channel == UP:
            self.up_outstanding = False
        elif channel == DOWN and msg.src == self.probe_target:
            self.probe_target = None
        elif channel == BRIDGE:
            self.bridge_outstanding = False
        if self.oclb.withdraw:
            # pull back the requests still queued elsewhere: left in place
            # they would deliver stale grants that only feed churn
            if self.up_outstanding:
                self.up_outstanding = False
                self.send(self.parent, WITHDRAW, None)
            if self.bridge_outstanding:
                self.bridge_outstanding = False
                self.send(self.bridge_target, WITHDRAW, None)
        # a fresh idle period starts a fresh down-phase round
        self.probed.clear()
        # "whenever an idle node gets work [...] it services all nodes from
        # which a work request was received" (paper §II-B3)
        self._serve_pending()

    def on_quantum_done(self, units: int) -> None:
        # work may have grown during the quantum (UTS stacks do): requests
        # that could not be served before may be servable now
        if self.pending:
            self._serve_pending()

    def quantum_boundary_quiet(self) -> bool:
        # no queued requesters, nothing to serve at the boundary; `pending`
        # only ever grows inside message handlers, so this cannot flip
        # during a fused block
        return not self.pending

    # -- serving (paper §II-B2 sharing fractions) -------------------------------------

    def _share_context(self, entry: _Pending) -> ShareContext:
        link = _LINK_OF[entry.link]
        if link is LinkKind.TO_CHILD:
            requester_t = self.child_sizes.get(entry.pid, entry.subtree)
        elif link is LinkKind.TO_PARENT:
            requester_t = self.sizes.parent_size or entry.subtree
        else:
            requester_t = entry.subtree
        return ShareContext(link=link, victim_subtree=self.t_self,
                            requester_subtree=max(1e-9, requester_t),
                            work_amount=self.work.amount())

    def _try_serve(self, entry: _Pending) -> bool:
        """Serve one requester; False when nothing can be given."""
        if not self.ready or self.work.is_empty():
            return False
        piece = self.work.split(self.policy.fraction(self._share_context(entry)))
        if piece is None:
            return False
        self.send_work(entry.pid, piece, channel=entry.link)
        if entry.link == UP:
            self.R.discard(entry.pid)
        return True

    def _serve_pending(self) -> None:
        if not self.pending:
            return
        still = []
        for entry in self.pending:
            if not self._try_serve(entry):
                still.append(entry)
        self.pending = still

    def gossip_targets(self) -> list[int]:
        """Bound diffusion goes to overlay neighbours (+ my bridge target),
        each once: the bridge target may also be a tree neighbour."""
        out = list(self.children)
        if self.parent >= 0:
            out.append(self.parent)
        if self.bridged and self.bridge_target is not None:
            out.append(self.bridge_target)
        return list(dict.fromkeys(out))

    # -- crash repair (only reached when fault injection is active) ---------------------

    def static_parent(self, pid: int) -> int:
        return self.tree.parent[pid]

    def static_children(self, pid: int):
        return self.tree.children[pid]

    def _repair_parent(self) -> int:
        return self.parent

    def _current_children(self):
        return self.children

    def _attach_size(self) -> float:
        return self.sizes.my_size or 0

    def _set_parent_link(self, pid: int) -> None:
        self.parent = pid
        self.waves.set_parent(pid)
        # the upward request queued at the dead parent is gone with it
        self.up_outstanding = False

    def _add_child_link(self, pid: int, size: float) -> None:
        if pid not in self.children:
            self.children.append(pid)
        self.child_sizes[pid] = size or self.tree.subtree_size[pid]
        self.waves.add_child(pid)

    def _drop_child(self, pid: int) -> None:
        if pid in self.children:
            self.children.remove(pid)
        self.R.discard(pid)
        self.child_sizes.pop(pid, None)
        self.probed.discard(pid)
        self.sizes.child_dead(pid)
        self.waves.child_dead(pid)

    def _on_new_parent(self, pid: int, size: float) -> None:
        if size:
            self.sizes.note_parent_size(size)
        if not self.terminated and self.ready:
            self._search()

    def on_leave(self) -> None:
        """Retract our queued requests so nobody grants work to a node on
        its way out; queued requesters *at* this node stay — serving them
        while draining only sheds the pool faster, and whoever is still
        unserved re-requests once the departure is announced."""
        if self.up_outstanding and self.parent >= 0 \
                and self.parent not in self.dead:
            self.send(self.parent, WITHDRAW, None)
        self.up_outstanding = False
        if (self.bridged and self.bridge_outstanding
                and self.bridge_target is not None
                and self.bridge_target not in self.dead):
            self.send(self.bridge_target, WITHDRAW, None)
        self.bridge_outstanding = False
        self.probe_target = None

    def peer_joined(self, pid: int, parent: int) -> None:
        """Graft a mid-run joiner (live elastic membership) as a new leaf.

        Every member applies the same graft, so the static tree the splice
        machinery walks stays identical fleet-wide; the joiner announces
        itself with ATTACH, which flows through the ordinary
        :meth:`_add_child_link` adoption at its parent.
        """
        if pid < self.tree.n:
            return                      # duplicate announcement
        if pid != self.tree.n:
            from ..sim.errors import SimRuntimeError
            raise SimRuntimeError(
                f"out-of-order join announcement: got pid {pid}, "
                f"expected {self.tree.n}")
        from ..overlay.tree import graft_leaf
        self.tree = graft_leaf(self.tree, parent)
        self.sizes.tree = self.tree     # only own links are read; idem here
        self.waves.note_join()

    def on_peer_dead(self, pid: int) -> None:
        if self.bridged and pid == self.bridge_target:
            self.bridge_outstanding = False
            self.bridge_target = self._pick_live_bridge()
        if self.probe_target == pid:
            self.probe_target = None
        self.pending = [e for e in self.pending if e.pid != pid]
        self.R.discard(pid)
        if not self.terminated and self.ready:
            self._search()

    def on_peer_suspected(self, pid: int) -> None:
        """Circuit breaker opened on ``pid``: stop waiting on it. The
        suspect keeps its queued requests (it is alive; serving it later
        is correct) but stops being a probe or bridge target."""
        if self.bridged and pid == self.bridge_target:
            self.bridge_outstanding = False
            self.bridge_target = self._pick_live_bridge()
        if self.probe_target == pid:
            self.probe_target = None
        if not self.terminated and self.ready:
            self._search()

    def on_peer_recovered(self, pid: int) -> None:
        """Breaker closed: ``pid`` is fair game again; re-enter the search
        (and let the root resume verification waves)."""
        if not self.terminated and self.ready:
            self._search()
        self._root_check()

    def _pick_live_bridge(self) -> Optional[int]:
        live = [p for p in range(self.tree.n)
                if p != self.pid and p not in self.dead
                and p not in self.suspect]
        if not live:
            # everyone else is dead or routed around; fall back to the
            # dead-exclusion set so a later recovery can still serve us
            live = [p for p in range(self.tree.n)
                    if p != self.pid and p not in self.dead]
        if not live:
            return None
        if self._bridge_rng is None:
            self._bridge_rng = RngStream(self.cfg.seed, "bridge-repair",
                                         self.pid)
        return self._bridge_rng.choice(live)

    # -- termination ----------------------------------------------------------------------

    def _root_trigger(self) -> bool:
        if (self.pid != 0 or self.terminated or not self.ready
                or not self.work.is_empty() or self._cpu_busy):
            return False
        if self._reliable is not None:
            # crashed children never file an upward request; the waves'
            # coverage counting takes over the completeness role of R
            return True
        return len(self.R) == len(self.children)

    def _root_check(self) -> None:
        if self._root_trigger():
            self.waves.root_try()

    def _counters(self) -> tuple[int, int, bool]:
        st = self.stats
        return (st.work_msgs_sent, st.work_msgs_received,
                not self.work.is_empty() or self._cpu_busy)


__all__ = ["OverlayWorker", "REQ", "NOWORK", "UP", "DOWN", "BRIDGE"]
