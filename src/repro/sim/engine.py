"""The simulation engine: event loop, message transport, run statistics."""

from __future__ import annotations

import weakref
from functools import reduce
from heapq import heappop
from itertools import accumulate
from operator import add
from typing import TYPE_CHECKING, Optional

from .errors import SimConfigError, SimDeadlockError, SimRuntimeError
from .events import ENGINE, EventQueue, event_key
from .faults import FaultController, FaultPlan
from .messages import Message
from .network import NetworkModel, uniform_network
from .process import SimProcess
from .stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..obs.registry import MetricsRegistry


class Simulator:
    """Deterministic discrete-event simulator of message-passing processes.

    Typical usage::

        sim = Simulator(network=grid5000(), seed=42)
        for pid in range(n):
            sim.add_process(MyProcess(pid))
        sim.run()
        print(sim.stats.makespan)

    The run ends when the event queue drains. If at that point some process
    reports ``finished() == False``, :class:`SimDeadlockError` is raised with
    a snapshot of the stuck processes — the simulator-level equivalent of a
    distributed deadlock, which in this repository always means a protocol
    bug (and is exactly what the termination-detection tests hunt for).

    ``debug=True`` turns on event tagging: deliveries, handler slots,
    timers and quanta get human-readable tags, so ``queue.snapshot_tags()``
    (and the deadlock report built from it) names what is pending. Off by
    default — tag strings are pure allocation overhead on the per-message
    hot path, so none are built unless the flag is set.

    The class doubles as the reference *execution environment*: protocol
    code only ever touches ``queue.now``/``queue.push`` (clock + timers),
    ``transmit`` (transport), ``compute`` (a worker's quanta: priced and
    fused here, measured on the wall clock by the live runtime),
    ``network.handler_cost``, ``stats``, ``metrics``, ``debug``, ``seed``
    and the fault surface (``faults``, ``is_crashed``, ``peer_logged``).
    ``repro.runtime.env.LiveEnv`` implements the same surface over wall
    clocks and sockets, which is how the protocols run unmodified on real
    processes (docs/runtime.md).
    """

    def __init__(self, network: Optional[NetworkModel] = None, seed: int = 0,
                 auto_place: bool = True, debug: bool = False,
                 faults: Optional[FaultPlan] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 fuse: bool = True, shard=None) -> None:
        self.network = network if network is not None else uniform_network()
        self.seed = seed
        self.debug = debug
        # Observability registry (repro.obs). None by default: every
        # publishing site in the framework is gated on an ``is not None``
        # check, so detached runs pay nothing and instrumented runs are
        # bit-identical (the registry never touches simulation state).
        self.metrics = metrics
        # A null plan normalises to no controller at all: with
        # ``self.faults is None`` every fault hook below is one dead branch
        # and the engine behaves bit-identically to the pre-fault code.
        self.faults: Optional[FaultController] = (
            FaultController(faults, seed)
            if faults is not None and not faults.is_null() else None)
        self.queue = EventQueue()
        self.processes: list[SimProcess] = []
        # per-pid bound hooks, so a delivery indexes a list instead of
        # looking a method up on the receiving process
        self._arrive_fns: list = []
        self._inbound_fns: list = []
        self.stats = RunStats.create(0)
        self._auto_place = auto_place
        self._running = False
        self._stopped = False
        self._started = False
        # FIFO per channel: like the TCP streams of the paper's testbed,
        # messages between one (src, dst) pair never overtake each other —
        # a property the pure-tree termination argument relies on.
        # An entry whose horizon has passed (arrive_at <= now) is inert —
        # max(now + delay, arrive_at) then equals now + delay — so transmit
        # sweeps stale entries amortized-O(1) (doubling threshold) to keep
        # the dict proportional to *in-flight* channels, not the O(n^2)
        # channels ever used.
        self._fifo: dict[tuple[int, int], float] = {}
        self._fifo_sweep = 256
        # Macro-event fusion (see docs/simulation.md and _run_fused):
        # the ``fuse`` flag opts in; ``fuse_active`` is resolved in run()
        # — fusion stays off under max_time/max_events truncation, where
        # the cut point depends on the per-event schedule.  Public: a
        # process's timer tells fusion its inbound horizon while it is on
        # (``SimProcess.call_at``); every substrate declares it.
        self._fuse = fuse
        self.fuse_active = False
        self._min_net_delay = self.network.min_delay()
        # Sharded parallel runs (repro.sim.shard): ``shard`` is the shard
        # context of the owning shard process — it maps every pid to its
        # shard, collects cross-shard exports from transmit(), and brokers
        # post-mortem receive-log queries. None (the default) keeps every
        # hook below a single dead branch: a serial run is bit-identical
        # to the pre-shard engine.
        self._shard = shard
        # Current window horizon while running under repro.sim.shard
        # (run_window); the fusion fast path treats it as an additional
        # lookahead bound — a foreign shard's events cannot land an
        # arrival before the window end.
        self._window_end: Optional[float] = None
        self._fired = 0

    # -- construction --------------------------------------------------------

    def add_process(self, proc: SimProcess) -> SimProcess:
        """Register a process; pids must be dense, in order: 0, 1, 2, ..."""
        if self._started:
            raise SimConfigError("cannot add processes after run() started")
        if proc.pid != len(self.processes):
            raise SimConfigError(
                f"expected pid {len(self.processes)}, got {proc.pid}; "
                "add processes in pid order")
        # the one back-reference is weak (SimProcess docstring): a dropped
        # finished run is freed by reference counting, not left to the
        # cycle collector
        bind = getattr(proc, "_bind", None)
        if bind is not None:
            bind(self)
        else:   # a duck-typed process, e.g. a shard ghost
            proc.sim = weakref.proxy(self)
        self.processes.append(proc)
        self._arrive_fns.append(proc._arrive)
        # (None for a duck-typed process, e.g. a shard ghost: nothing
        # schedules events for one)
        self._inbound_fns.append(getattr(proc, "_note_inbound", None))
        return proc

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.queue.now

    # -- transport -------------------------------------------------------------

    def transmit(self, msg: Message) -> None:
        """Price and enqueue a message delivery.

        Deliveries are posted as (bound arrival method, message) pairs —
        no closure and no cancel handle per message (:meth:`_deliver_at`),
        keyed by the sender's next ordinal (a duplicate takes another).
        """
        dst = msg.dst
        if not (0 <= dst < len(self.processes)):
            raise SimRuntimeError(f"message to unknown process {dst}")
        src = msg.src
        sender = self.processes[src]
        key = sender._key
        sender._key = key + 1
        src_stats = self.stats.per_process[src]
        src_stats.msgs_sent += 1
        src_stats.bytes_sent += msg.size_bytes
        now = self.queue._now
        msg.send_time = now
        if len(self._fifo) >= self._fifo_sweep:
            # drop channels whose FIFO horizon already passed (inert; see
            # the field comment) and re-arm the threshold at 2x the live
            # size so the sweep stays amortized-O(1) per transmit
            self._fifo = {c: t for c, t in self._fifo.items() if t > now}
            self._fifo_sweep = max(256, 2 * len(self._fifo))
        fc = self.faults
        if fc is not None and fc.drops(msg, now):
            src_stats.msgs_lost += 1
            return
        delay = self.network.delivery_delay(src, dst, msg.size_bytes)
        if fc is not None and fc.plan.gray_links:
            # Gray-link inflation multiplies (factor >= 1, validated), so
            # network.min_delay() remains a sound fusion/shard lookahead.
            delay *= fc.delay_factor(src, dst, now)
        chan = (src, dst)
        # max(now + delay, FIFO horizon), without the builtin call
        arrive_at = now + delay
        horizon = self._fifo.get(chan, 0.0)
        if horizon > arrive_at:
            arrive_at = horizon
        self._fifo[chan] = arrive_at
        # Sharded run: a delivery to a foreign pid leaves with its key for
        # the barrier (it arrives min_delay() away, at or past the window
        # end); everything source-side — send stats, loss/dup draws,
        # pricing, the (src, dst) FIFO clock — already happened above,
        # identically to a serial run.
        sh = self._shard
        foreign = sh is not None and sh.owner[dst] != sh.shard_id
        if foreign:
            sh.outbox.append((arrive_at, key, msg))
        else:
            self._deliver_at(arrive_at, key, msg, "deliver")
        if fc is not None and fc.duplicates(msg):
            src_stats.msgs_duplicated += 1
            dup_delay = self.network.delivery_delay(src, dst, msg.size_bytes)
            if fc.plan.gray_links:
                dup_delay *= fc.delay_factor(src, dst, now)
            dup_at = max(now + dup_delay, self._fifo[chan])
            self._fifo[chan] = dup_at
            key = sender._key
            sender._key = key + 1
            if foreign:
                sh.outbox.append((dup_at, key, msg))
            else:
                self._deliver_at(dup_at, key, msg, "dup")

    def _deliver_at(self, arrive_at: float, key: int, msg: Message,
                    label: str) -> None:
        """Schedule ``msg``'s arrival at its destination. Posted: nothing
        cancels a delivery (a crashed receiver drops it in ``_arrive``);
        under :attr:`debug` pushed instead, to carry a tag."""
        dst = msg.dst
        if self.fuse_active:
            self._inbound_fns[dst](arrive_at)
        if self.debug:
            self.queue.push(arrive_at, key, self._arrive_fns[dst],
                            tag=f"{label}:{msg.kind}->{dst}", arg=msg)
        else:
            self.queue.post(arrive_at, key, self._arrive_fns[dst], msg)

    # -- compute ----------------------------------------------------------------

    def compute(self, proc) -> None:
        """Compute ``proc``'s next quantum and schedule its boundary.

        The quantum is processed now, at its start time, and priced as
        ``units * unit_cost / speed``, stretched by any gray slowdown
        window on the pid. Its boundary (``proc._quantum_done``) fires as
        one occupy event — or, when fusion is active and the worker can
        fuse, at the end of a macro event (:meth:`_run_fused`).
        """
        app = proc.app
        cfg = proc.cfg
        outcome = app.process(proc.work, cfg.quantum, proc.shared)
        if not proc._count_quantum(outcome):
            return
        units = outcome.units
        duration = units * app.unit_cost / cfg.speed
        fc = self.faults
        # a gray-slowed pid never fuses: a fused block cannot observe a
        # slowdown window opening or closing mid-block
        slowed = fc is not None and fc.has_slowdown(proc.pid)
        if slowed:
            duration *= fc.slow_factor(proc.pid, self.queue._now)
        proc.stats.busy_time += duration
        # Fusion is only sound without shared knowledge: a BOUND
        # improvement arriving between quanta must be protocol-visible at
        # the exact quantum boundary, which fusing would skip. UTS and the
        # synthetic workload share nothing; B&B never fuses.
        if (self.fuse_active and proc.shared is None and not slowed
                and proc.quantum_boundary_quiet()):
            self._run_fused(proc, units, duration)
            return
        improved = outcome.improved
        proc.occupy(duration, lambda: proc._quantum_done(units, improved),
                    tag=f"quantum@{proc.pid}" if self.debug else "")

    def _fusion_horizon(self, proc) -> Optional[float]:
        """Earliest time any *other* event could affect ``proc``.

        Two sources bound it: (a) events already scheduled *for* it —
        deliveries, its timers, its crash injection — tracked exactly in
        the per-process inbound heap; (b) anything a *foreign* event might
        do. A foreign event firing at time T can only reach it through
        :meth:`transmit`, which prices at least the network's minimum
        latency, so nothing it causes lands before ``peek_time() +
        min_delay``. Under sharding the window end is a further (b) term:
        the conservative-lookahead barrier lands a foreign shard's
        influence at or after it. Quantum starts strictly before the
        horizon are undisturbed: the worker provably computes through
        them exactly as the one-event-per-quantum engine would. None =
        queue empty and no inbound (fuse until the work drains).
        """
        h = self.queue.peek_time()
        if h is not None:
            h += self._min_net_delay
        wend = self._window_end
        if wend is not None and (h is None or wend < h):
            h = wend
        mine = proc._inbound_horizon()
        if mine is not None and (h is None or mine < h):
            return mine
        return h

    def _run_fused(self, proc, units: int, duration: float) -> None:
        """Macro-event fast path: fuse consecutive quanta into one event.

        The first quantum was already processed and counted (at its start
        time, like the unfused engine); this extends it with as many
        further quanta as provably complete before :meth:`_fusion_horizon`,
        then schedules a *single* event at the accumulated boundary.
        Interior boundaries are replayed eagerly — same ``work_done_time``
        updates, same QUANTUM trace samples at the same virtual times, and
        guaranteed-no-op ``on_quantum_done`` calls skipped — while the
        final boundary runs for real through ``proc._occupy_done``, so
        messages, timers or a crash landing inside the last quantum's
        window behave exactly as under the unfused engine. Durations
        accumulate left to right (``t = t + d``), reproducing the unfused
        engine's float arithmetic bit for bit. The block takes ``k`` keys,
        one per quantum, and its event the last: the key the unfused
        engine's ``k``-th occupy event has, so it ties with foreign events
        exactly as that one does (repro.sim.events).
        """
        queue = self.queue
        t = queue._now + duration
        horizon = self._fusion_horizon(proc)
        work = proc.work
        k = 1
        if (horizon is None or t < horizon) and not work.is_empty():
            app = proc.app
            uc = app.unit_cost
            speed = proc.cfg.speed
            quantum = proc.cfg.quantum
            full = quantum * uc / speed
            if full > 0.0:
                rs = self.stats
                st = proc.stats
                tracer = proc.tracer
                m = self.metrics
                process_quanta = app.process_quanta
                if tracer is not None:
                    from .trace import QUANTUM
                # accumulate the hot counters locally (same sequential
                # additions, written back once) — nothing else can touch
                # them mid-loop
                wu = st.work_units
                bt = st.busy_time
                wdt = rs.work_done_time
                while ((horizon is None or t < horizon)
                       and not work.is_empty()):
                    if horizon is None:
                        budget = 16384
                    else:
                        # floor, not ceil: the budget only counts quanta
                        # whose *starts* fit strictly under the horizon
                        # even if every one runs full length, leaving a
                        # full quantum of slack against float drift in t;
                        # the while loop mops up any remainder
                        budget = int((horizon - t) / full) or 1
                        if budget > 16384:
                            budget = 16384
                    batch = process_quanta(work, quantum, None, budget)
                    if not batch:
                        break
                    if m is not None:
                        m.counter("compute.quanta").inc(len(batch))
                        m.counter("compute.units").inc(sum(batch))
                    # accumulate/reduce apply the exact left-to-right
                    # float additions the unfused engine performs, with
                    # the same operand order: (units * unit_cost) / speed
                    ds = [u * uc / speed for u in batch]
                    ts = list(accumulate(ds, initial=t))
                    if tracer is not None:
                        # the boundary at ts[i] ends the quantum before
                        # batch[i]: the first one ends the previous block
                        for tb, u in zip(ts, [units, *batch[:-1]]):
                            tracer.record(tb, proc.pid, QUANTUM, u)
                    wu += sum(batch)
                    bt = reduce(add, ds, bt)
                    # boundaries replayed at ts[:-1]; t is monotone, so
                    # the last one is the work_done_time candidate
                    if ts[-2] > wdt:
                        wdt = ts[-2]
                    t = ts[-1]
                    units = batch[-1]
                    k += len(batch)
                st.work_units = wu
                st.busy_time = bt
                if wdt > rs.work_done_time:
                    rs.work_done_time = wdt
                if k > 1:
                    rs.macro_events += 1
                    rs.fused_quanta += k
        # bypass occupy(): one event at the fused boundary, cancellable by
        # the crash injector exactly like a plain occupy event. Its
        # `improved` is False: without shared knowledge gossip is a no-op
        proc._cpu_busy = True
        key = proc._key + k - 1
        proc._key = key + 1
        proc._occupy_event = queue.push(
            t, key, proc._occupy_done,
            tag=f"macro@{proc.pid}x{k}" if self.debug else "",
            arg=lambda: proc._quantum_done(units, False))

    # -- run --------------------------------------------------------------------

    def stop(self) -> None:
        """Abort the run after the current event (used by tests/limits)."""
        self._stopped = True

    def note_work_done(self) -> None:
        """Record that application work completed at the current time."""
        if self.now > self.stats.work_done_time:
            self.stats.work_done_time = self.now

    def _begin(self, limited: bool) -> None:
        """Shared setup for run() and begin_windows(): stats, placement,
        crash schedule, process start."""
        if self._started:
            raise SimConfigError("a Simulator instance runs only once")
        self._started = True
        if not self.processes:
            raise SimConfigError("no processes registered")
        self.stats = RunStats.create(len(self.processes))
        # bind every process (shard ghosts included) to its stats row once,
        # so SimProcess.stats is an attribute read, not a lookup chain
        rows = self.stats.per_process
        for proc in self.processes:
            proc._stats = rows[proc.pid]
        if self._auto_place:
            self.network.place(len(self.processes), seed=self.seed)
        self._running = True
        # Fusion needs the full event schedule ahead of time to be the
        # run's own; truncation limits cut at per-event granularity, so a
        # limited run falls back to the one-event-per-quantum engine.
        self.fuse_active = self._fuse and not limited
        sh = self._shard
        if self.faults is not None:
            self.faults.validate_fleet(len(self.processes))
            for pid, t in self.faults.plan.crashes:
                if pid >= len(self.processes):
                    raise SimConfigError(
                        f"fault plan crashes unknown process {pid}")
                if sh is not None and sh.owner[pid] != sh.shard_id:
                    # Remote pids crash in their own shard; is_crashed
                    # answers for them from the plan (see below).
                    continue
                if self.fuse_active:
                    self._inbound_fns[pid](t)
                self.queue.push(t, event_key(ENGINE, pid),
                                self._crash_process,
                                tag=f"crash:{pid}" if self.debug else "",
                                arg=pid)
        for proc in self.processes:
            proc.start()

    def _finish(self, truncated: bool) -> RunStats:
        self._running = False
        self.stats.events_fired = self._fired
        self._finalize(truncated=truncated)
        return self.stats

    def run(self, max_time: Optional[float] = None,
            max_events: Optional[int] = None) -> RunStats:
        """Execute until the queue drains (or a limit trips); returns stats."""
        limited = max_time is not None or max_events is not None
        self._begin(limited)
        queue = self.queue
        # Pops are inline: the EventQueue.pop step (skip cancelled, advance
        # the clock) without a method call per event.
        heap = queue._heap
        fired = skipped = 0
        # A run is *truncated* only when a limit actually cut it short —
        # stop() was called, or an event beyond the limit was left pending.
        # Merely passing max_time/max_events must not suppress the deadlock
        # check when the queue drained naturally before the limit.
        truncated = False
        while True:
            if self._stopped:
                truncated = True
                break
            if limited:
                # One peek serves both limit checks (the pop below re-walks
                # at most the cancelled heads peek already pruned).
                nxt = queue.peek_time()
                if max_events is not None and fired >= max_events:
                    truncated = nxt is not None
                    break
                if max_time is not None and nxt is not None and nxt > max_time:
                    truncated = True
                    break
            if not heap:
                break
            entry = heappop(heap)
            handle = entry[4]
            if handle is not None and handle.cancelled:
                skipped += 1
                continue
            queue._now = entry[0]
            fired += 1
            arg = entry[3]
            if arg is not None:
                entry[2](arg)
            else:
                entry[2]()
        queue.fired += fired
        queue.skipped += skipped
        self._fired = fired
        return self._finish(truncated)

    # -- windowed execution (repro.sim.shard) -----------------------------------
    #
    # The sharded parallel driver replaces the single run() call with:
    #
    #     sim.begin_windows()
    #     while not done:
    #         next_t = sim.run_window(horizon)   # fire events with t < horizon
    #         ... barrier: exchange cross-shard messages ...
    #         for at, key, msg in inbound: sim.inject(msg, at, key)
    #     stats = sim.finish_windows()
    #
    # run_window never fires an event at or past the horizon, and inject
    # only ever lands arrivals at or past it (conservative lookahead), so
    # the queue's no-rewind invariant holds by construction.

    def begin_windows(self) -> None:
        """Start a windowed run (sharded driver); pair with finish_windows."""
        self._begin(limited=False)

    def run_window(self, horizon: float) -> Optional[float]:
        """Fire every pending event with time strictly below ``horizon``.

        Returns the next pending event time (>= horizon) or None if the
        local queue is empty — the shard's bid for the next window start.
        """
        self._window_end = horizon
        queue = self.queue
        heap = queue._heap
        fired = skipped = 0
        nxt = None
        while heap:
            # inline peek + pop, as in run()
            entry = heap[0]
            handle = entry[4]
            if handle is not None and handle.cancelled:
                heappop(heap)
                skipped += 1
                continue
            nxt = entry[0]
            if nxt >= horizon:
                break
            heappop(heap)
            queue._now = nxt
            fired += 1
            arg = entry[3]
            if arg is not None:
                entry[2](arg)
            else:
                entry[2]()
            nxt = None
        queue.fired += fired
        queue.skipped += skipped
        self._fired += fired
        self._window_end = None
        return nxt

    def inject(self, msg: Message, arrive_at: float, key: int) -> None:
        """Deliver a foreign shard's message locally at ``arrive_at``.

        The sender's shard already priced the delivery (delay, FIFO clock,
        loss/dup draws), keyed it and counted the source-side stats; this
        side only schedules the arrival, exactly as transmit() would have.
        """
        self._deliver_at(arrive_at, key, msg, "deliver")

    def finish_windows(self) -> RunStats:
        """End a windowed run: deadlock check, seal, return stats."""
        return self._finish(truncated=False)

    # -- faults -----------------------------------------------------------------

    def is_crashed(self, pid: int) -> bool:
        """Ground truth used by the (perfect) failure detector model."""
        fc = self.faults
        if fc is None:
            return False
        if pid in fc.crashed:
            return True
        if self._shard is not None:
            # Remote pids crash in their owner's shard; answer from the
            # plan instead. Exactly equivalent to the event-based answer:
            # a crash key has the ENGINE origin, the smallest there is, so
            # a crash fires before any same-time query — plan time <= now
            # iff the event already fired.
            t = fc.crash_times.get(pid)
            return t is not None and t <= self.queue.now
        return False

    def peer_logged(self, dead_pid: int, src_pid: int, seq: int) -> bool:
        """Whether crashed ``dead_pid`` logged transfer ``seq`` from
        ``src_pid`` before dying.

        The dead peer's reliable-channel dedup set stands in for the
        write-ahead receive log a fault-tolerant runtime keeps on stable
        storage; reading it post-mortem is the modelled "recovery from the
        log" (the live runtime reads an actual on-disk spool here).
        """
        sh = self._shard
        if sh is not None and sh.owner[dead_pid] != sh.shard_id:
            # The dead peer's log lives in its owner's shard; the shard
            # context brokers the lookup through the parent (which blocks
            # until the owner's clock has passed the crash, so the log is
            # frozen and the answer exact).
            return sh.query_peer_log(dead_pid, src_pid, seq)
        ch = getattr(self.processes[dead_pid], "_reliable", None)
        return ch is not None and ch.was_delivered(src_pid, seq)

    def note_reliable_delivery(self, dst_pid: int, src_pid: int,
                               seq: int) -> None:
        """Hook: ``dst_pid``'s reliable channel logged transfer ``seq``
        from ``src_pid``.

        Serial runs ignore it (peer_logged reads the channel directly);
        under sharding the context mirrors entries for planned-crash pids
        to the parent so foreign shards can query them post-mortem.
        """
        sh = self._shard
        if sh is not None:
            sh.note_delivery(dst_pid, src_pid, seq)

    def _crash_process(self, pid: int) -> None:
        """Crash-stop ``pid``: halt execution, drop state, never recover."""
        proc = self.processes[pid]
        proc._crashed = True
        proc._inbox.clear()
        if proc._occupy_event is not None:
            proc._occupy_event.cancel()
            proc._occupy_event = None
        proc._cpu_busy = False
        self.faults.crashed.add(pid)
        ps = self.stats.per_process[pid]
        ps.crashes += 1
        ps.crash_time = self.now
        if self.metrics is not None:
            self.metrics.counter("engine.crashes").inc()
        tracer = getattr(proc, "tracer", None)
        if tracer is not None:
            from .trace import CRASH
            tracer.record(self.now, pid, CRASH)

    def _finalize(self, truncated: bool) -> None:
        unfinished = [p.pid for p in self.processes
                      if not p.finished() and not p._crashed]
        if unfinished and not truncated:
            pending = self.queue.snapshot_tags()[:10]
            hint = "" if self.debug else \
                " (run with debug=True for event tags)"
            raise SimDeadlockError(
                f"event queue drained at t={self.now:.6f} with "
                f"{len(unfinished)} unfinished processes "
                f"(first: {unfinished[:10]}); pending events: {pending}"
                + hint)
        fc = self.faults
        if fc is not None and fc.plan.partitions:
            # Partition cut/heal markers are pure plan data — recording
            # them here (instead of as engine events) keeps the event
            # schedule, and thus shard/fusion bit-identity, untouched.
            # Consumers sort by time; value encodes window identity
            # (+idx+1 at the cut, -(idx+1) at the heal).
            tracer = getattr(self.processes[0], "tracer", None)
            if tracer is not None:
                from .trace import PARTITION
                for i, (_side, start, end) in enumerate(fc.plan.partitions):
                    tracer.record(start, 0, PARTITION, float(i + 1))
                    tracer.record(end, 0, PARTITION, float(-(i + 1)))
        self.stats.makespan = self.stats.max_finish_time(default=self.now)
        if self.stats.makespan == 0.0:
            self.stats.makespan = self.now
        self.stats.seal()
        if self.metrics is not None:
            self.metrics.gauge("engine.events").set(self.stats.events_fired)
            self.metrics.gauge("engine.makespan_s").set(self.stats.makespan)


__all__ = ["Simulator"]
