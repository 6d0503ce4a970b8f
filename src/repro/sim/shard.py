"""Sharded parallel simulation: conservative-lookahead multi-core DES.

PR 6's quantum fusion removed the per-quantum event class; what remains at
fleet scale is *messages* — millions of steal/transfer events that one
Python event loop grinds through serially. This module splits the fleet
across K OS processes ("shards"), each running its own
:class:`~repro.sim.engine.Simulator` over its share of the pids, and
advances them in lock-step **windows** of the network's minimum latency:

* All shards sit at a barrier. The parent computes the next window start
  ``W`` — the global minimum over every shard's next pending event time
  and every routed-but-unfired cross-shard arrival — and the horizon
  ``H = W + min_delay()``.
* Each shard fires every local event with ``t < H``. Any message it sends
  to a foreign pid is priced source-side exactly as in a serial run
  (stats, FIFO clock, loss/duplication draws) and *exported*: its arrival
  time is at least ``t + min_delay() >= H``, so delivering it at the next
  barrier can never rewind the destination shard. That inequality — the
  paper's own locality economics, where every cross-peer message costs at
  least one network latency — is the classic conservative-lookahead
  condition (Chandy-Misra-Bryant), and the window barrier is its
  null-message protocol collapsed to one synchronisation per window.
* At the barrier each shard seals its exports into one *parcel* per
  destination shard: the earliest arrival time plus the pickled
  ``(arrive_at, key, message)`` entries (:func:`seal_parcels`). The
  parent bids the next window from the parcel minima and forwards the
  bytes unopened; the destination unpickles them inside its next window
  and posts each one under the key its sender gave it. Deliveries
  between two pids of one shard post straight into its heap. Windows
  with no events anywhere are skipped (``W`` jumps straight to the next
  pending time).

**Partitioning** follows the overlay: for tree protocols the fleet is cut
into whole subtrees (greedy decomposition into chunks of about ``n/K``
pids), so the steal traffic the paper localises *inside* subtrees stays
intra-shard and only the rare cross-subtree traffic pays a barrier hop.
When the network placed processes on multiple clusters
(:class:`~repro.sim.network.ClusterSpec`), units are refined so no unit
straddles clusters. Non-tree protocols (RWS, MW, LIFELINE) fall back to
contiguous pid blocks.

**Determinism.** A sharded run is bit-identical to the serial run — same
makespan, node counts, steal counts, RNG draws. Every event's heap key
is computed by the shard that owns its origin pid, exactly as the serial
engine computes it (:mod:`repro.sim.events`), so simultaneous events
fire in the same order on every engine; every per-process RNG stream is
derived from ``(seed, purpose, pid)`` and runs entirely inside the owner
shard; loss/duplication draws are keyed per ``(sender, send index)``
(:mod:`repro.sim.faults`); per-pid stats are written only by the owner
and merged by copy.

The per-shard Simulator hosts *ghost* placeholders for foreign pids, so
pids stay dense and every pricing decision (placement, cluster lookup,
latency) is computed from the same global tables as a serial run.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Callable, Optional

from .errors import SimConfigError, SimRuntimeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunConfig
    from .stats import RunStats


# -- partitioning ------------------------------------------------------------

def _subtree_units(tree, target: int) -> list[list[int]]:
    """Decompose a tree overlay into units of at most ``target`` pids.

    A subtree that fits becomes one unit; an oversized subtree contributes
    its root as a singleton and recurses into the children. Iterative
    (explicit stack) so 10^5-node chains don't hit the recursion limit.
    """
    units: list[list[int]] = []
    stack = [0]
    while stack:
        v = stack.pop()
        if tree.subtree_size[v] <= target:
            unit = []
            sub = [v]
            while sub:
                u = sub.pop()
                unit.append(u)
                sub.extend(tree.children[u])
            unit.sort()
            units.append(unit)
        else:
            units.append([v])
            # reversed: the explicit stack pops in child id order
            stack.extend(reversed(tree.children[v]))
    return units


def _block_units(n: int, shards: int) -> list[list[int]]:
    """Contiguous pid blocks (protocols without a tree overlay)."""
    target = -(-n // shards)
    return [list(range(lo, min(lo + target, n)))
            for lo in range(0, n, target)]


def partition_fleet(cfg: "RunConfig", shards: int,
                    network=None) -> list[int]:
    """Map every pid to a shard: ``owner[pid] in range(shards)``.

    Tree protocols partition by overlay subtree — the locality thesis
    says steals stay inside subtrees, so cutting on subtree boundaries
    minimises cross-shard traffic. If ``network`` is given and placed the
    fleet over several clusters, units are refined so none straddles a
    cluster boundary ("partition by ClusterSpec"). Units are then packed
    greedily, largest first, onto the least-loaded shard; the unit
    holding pid 0 (root, initial work, termination anchor) is pinned to
    shard 0. Fully deterministic in ``cfg``.
    """
    from ..baselines.ahmw import AHMW_DEGREE
    from ..overlay.tree import deterministic_tree, random_tree

    n = cfg.n
    target = -(-n // shards)
    proto = cfg.protocol
    if proto in ("TD", "BTD"):
        units = _subtree_units(deterministic_tree(n, cfg.dmax), target)
    elif proto in ("TR", "BTR"):
        units = _subtree_units(random_tree(n, seed=cfg.seed), target)
    elif proto == "AHMW":
        units = _subtree_units(deterministic_tree(n, AHMW_DEGREE), target)
    else:  # RWS, MW, LIFELINE: no tree to respect
        units = _block_units(n, shards)
    if network is not None and len(network.clusters) > 1:
        try:
            refined = []
            for unit in units:
                by_cluster: dict[int, list[int]] = {}
                for p in unit:
                    by_cluster.setdefault(network.cluster_of(p), []).append(p)
                # cluster index order keeps the refinement deterministic
                refined.extend(by_cluster[ci] for ci in sorted(by_cluster))
            units = refined
        except SimConfigError:
            pass  # not placed yet: subtree units stand
    owner = [0] * n
    load = [0] * shards
    root_unit = next(u for u in units if u[0] == 0)
    load[0] = len(root_unit)
    rest = [u for u in units if u is not root_unit]
    rest.sort(key=lambda u: (-len(u), u[0]))
    for unit in rest:
        k = min(range(shards), key=lambda i: (load[i], i))
        load[k] += len(unit)
        for p in unit:
            owner[p] = k
    return owner


# -- the per-shard side ------------------------------------------------------

class _GhostProcess:
    """Placeholder for a pid owned by another shard.

    Keeps pids dense so placement, cluster lookups and per-pid stats rows
    line up with the serial run. It never executes: transmit() intercepts
    messages *to* it before delivery, and its crash events stay in the
    owner shard. A delivery reaching one is a partitioning bug and fails
    loudly.
    """

    __slots__ = ("pid", "sim", "_crashed", "_stats")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.sim = None
        self._crashed = False
        self._stats = None      # bound by Simulator._begin, never written

    def start(self) -> None:
        pass

    def finished(self) -> bool:
        return True

    def _arrive(self, msg) -> None:
        raise SimRuntimeError(
            f"shard delivered a message locally to foreign pid {self.pid}")


class ShardContext:
    """One shard's view of the partition, wired into its Simulator.

    The engine consults :attr:`owner` on every transmit, appends foreign
    deliveries to :attr:`outbox`, mirrors doomed pids' receive-log
    entries through :meth:`note_delivery`, and resolves post-mortem log
    lookups for foreign pids through :meth:`query_peer_log` (a blocking
    round trip to the parent, which arbitrates using every shard's
    flushed clock — see ``run_sharded``).
    """

    __slots__ = ("shard_id", "owner", "outbox", "delta", "_doomed",
                 "_conn", "sim")

    def __init__(self, shard_id: int, owner: list[int], doomed: set[int],
                 conn) -> None:
        self.shard_id = shard_id
        self.owner = owner
        #: cross-shard deliveries: (arrive_at, key, message) — sealed into
        #: parcels and cleared at every barrier
        self.outbox: list[tuple] = []
        #: receive-log entries of local doomed pids since the last flush
        self.delta: list[tuple[int, int, int]] = []
        self._doomed = doomed
        self._conn = conn
        self.sim = None

    def note_delivery(self, dst_pid: int, src_pid: int, seq: int) -> None:
        if dst_pid in self._doomed:
            self.delta.append((dst_pid, src_pid, seq))

    def query_peer_log(self, dead_pid: int, src_pid: int, seq: int) -> bool:
        """Ask the parent whether ``dead_pid`` logged ``(src, seq)``.

        Flushes this shard's clock and pending log delta with the query so
        the parent can both answer queries *about* our doomed pids and
        prove deadlock-freedom (at any blocked moment, the blocked shard
        with the highest flushed clock is answerable).
        """
        delta, self.delta = self.delta, []
        self._conn.send(("query", self.sim.queue.now, delta,
                         dead_pid, src_pid, seq))
        kind, answer = self._conn.recv()
        if kind != "answer":  # pragma: no cover - protocol bug guard
            raise SimRuntimeError(f"expected answer, got {kind!r}")
        return answer


def seal_parcels(outbox: list[tuple],
                 owner: list[int]) -> dict[int, tuple[float, bytes]]:
    """Seal a barrier's cross-shard deliveries, one parcel per destination.

    Returns ``{destination shard: (earliest arrive_at, pickled entries)}``
    with each shard's ``(arrive_at, key, message)`` entries in outbox
    order. The parent needs only the minimum to bid the next window, so
    it forwards the bytes unopened and every delivery costs one pickle
    and one unpickle. One ``dumps`` per parcel keeps a duplicated
    delivery's two entries on one message object, as in a serial run.
    """
    groups: dict[int, list[tuple]] = {}
    for entry in outbox:
        k = owner[entry[2].dst]
        group = groups.get(k)
        if group is None:
            groups[k] = [entry]
        else:
            group.append(entry)
    return {k: (min(entry[0] for entry in group),
                pickle.dumps(group, pickle.HIGHEST_PROTOCOL))
            for k, group in groups.items()}


def _resolve_app(app):
    """Accept an Application or a zero-argument builder/spec for one."""
    from ..apps.base import Application
    if isinstance(app, Application):
        return app
    if callable(app):
        return app()
    raise SimConfigError(f"not an application or builder: {app!r}")


def _shard_main(conn, shard_id: int, owner: list[int], cfg: "RunConfig",
                app, collect_trace: bool) -> None:
    """Child process: build the shard's Simulator, run the window loop."""
    try:
        from ..experiments.runner import worker_factory
        from ..sim.engine import Simulator
        from ..sim.network import grid5000

        application = _resolve_app(app)
        doomed = set()
        if cfg.faults is not None:
            doomed = {pid for pid, _t in cfg.faults.crashes
                      if owner[pid] == shard_id}
        ctx = ShardContext(shard_id, owner, doomed, conn)
        network = cfg.network if cfg.network is not None else grid5000(
            handler_cost=cfg.handler_cost, jitter=cfg.jitter)
        sim = Simulator(network=network, seed=cfg.seed, faults=cfg.faults,
                        fuse=cfg.fuse, shard=ctx)
        ctx.sim = sim
        make = worker_factory(cfg, application)
        local: list = []
        for p in range(cfg.n):
            if owner[p] == shard_id:
                local.append(sim.add_process(make(p)))
            else:
                sim.add_process(_GhostProcess(p))
        tracer = None
        if collect_trace:
            from .trace import Tracer
            tracer = Tracer()
            for w in local:
                w.tracer = tracer

        import time as _time
        compute_s = 0.0
        sim.begin_windows()
        conn.send(("ready", sim.queue.peek_time()))
        while True:
            cmd = conn.recv()
            if cmd[0] == "finish":
                break
            _, horizon, parcels = cmd
            t0 = _time.perf_counter()
            inject = sim.inject
            for blob in parcels:
                for at, key, msg in pickle.loads(blob):
                    inject(msg, at, key)
            next_t = sim.run_window(horizon)
            compute_s += _time.perf_counter() - t0
            sealed = seal_parcels(ctx.outbox, owner)
            ctx.outbox = []
            delta, ctx.delta = ctx.delta, []
            conn.send(("barrier", horizon, next_t, sealed, delta))
        stats = sim.finish_windows()

        shared_min = None
        perm_matches: dict = {}
        redundancy = 0
        for w in local:
            shared = getattr(w, "shared", None)
            if shared is not None:
                value = application.shared_value(shared)
                if value is not None and (shared_min is None
                                          or value < shared_min):
                    shared_min = value
                pv = getattr(shared, "perm_value", None)
                if pv is not None and pv not in perm_matches:
                    perm_matches[pv] = (w.pid, shared.perm)
            redundancy += getattr(w, "redundancy", 0)
        payload = {
            "stats": stats,
            "end_time": sim.now,
            "compute_s": compute_s,
            "local_pids": len(local),
            "shared_min": shared_min,
            "perm_matches": perm_matches,
            "redundancy": redundancy,
            "samples": tracer.samples if tracer is not None else None,
        }
        conn.send(("done", payload))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


# -- merging -----------------------------------------------------------------

def merge_shard_stats(parts: list["RunStats"], owner: list[int],
                      end_time: float) -> "RunStats":
    """Combine per-shard RunStats into one fleet-wide RunStats.

    Every per-pid counter is written only by the pid's owner shard (the
    ghost rows stay zero), so the merge copies each row from its owner.
    Scalar counters sum (each event fires in exactly one shard); the
    makespan is recomputed from the merged finish times exactly as the
    engine's finalizer would.
    """
    from .stats import _FLOAT_FIELDS, _INT_FIELDS, RunStats

    n = len(owner)
    merged = RunStats.create(n)
    for pid, k in enumerate(owner):
        src = parts[k].per_process[pid]
        dst = merged.per_process[pid]
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            setattr(dst, name, getattr(src, name))
    merged.events_fired = sum(p.events_fired for p in parts)
    merged.macro_events = sum(p.macro_events for p in parts)
    merged.fused_quanta = sum(p.fused_quanta for p in parts)
    merged.work_done_time = max(p.work_done_time for p in parts)
    merged.makespan = merged.max_finish_time(default=end_time)
    if merged.makespan == 0.0:
        merged.makespan = end_time
    merged.seal()
    return merged


def _merge_samples(parts: list) -> list:
    """Concatenate per-shard trace samples into one global timeline.

    Each shard records only its own pids, on the same virtual clock, so
    the merge is a stable sort by (time, pid) — per-pid sample order is
    preserved, matching the serial tracer up to the interleaving of
    same-time samples of different pids.
    """
    out = []
    for samples in parts:
        if samples:
            out.extend(samples)
    out.sort(key=lambda s: (s.time, s.pid))
    return out


# -- the parent driver -------------------------------------------------------

def _mp_context():
    """Fork when the platform has it (cheap, no pickling of the app);
    spawn otherwise — everything shipped to children is picklable."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


def run_sharded(cfg: "RunConfig", app, shards: int, *,
                tracer=None, progress: Optional[Callable] = None):
    """Run ``cfg`` split over ``shards`` OS processes; returns
    ``(ExperimentResult, RunStats, per_shard_wall)``.

    Bit-compatible with :func:`repro.experiments.runner.run_instrumented`;
    with ``shards <= 1`` it *is* that function (plus a zero wall list). ``app`` may be an
    Application or a zero-argument builder (needed under the spawn
    fallback, where children re-create it). ``tracer``, if given,
    receives the merged per-shard samples.

    Raises :class:`SimConfigError` for configurations sharding cannot
    reproduce exactly: ``max_events`` truncation (the cut point depends
    on the global event interleaving). Network jitter is fine — draws
    are keyed per (src, send index), so each shard reproduces its own
    sources' noise exactly; jitter only *adds* delay, so the
    ``min_delay()`` lookahead stays conservative.
    """
    import time as _time

    from ..experiments.runner import ExperimentResult, run_instrumented
    from ..sim.network import grid5000

    if shards <= 1 or cfg.n == 1:
        application = _resolve_app(app)
        result, stats = run_instrumented(cfg, application, tracer=tracer)
        return result, stats, [0.0]
    if cfg.max_events is not None:
        raise SimConfigError(
            "sharded runs do not support max_events truncation; "
            "run serially (shards=1) for truncated runs")
    network = cfg.network if cfg.network is not None else grid5000(
        handler_cost=cfg.handler_cost, jitter=cfg.jitter)
    min_delay = network.min_delay()
    if min_delay <= 0:
        raise SimConfigError(
            "sharded runs need min_delay() > 0 for conservative lookahead")
    shards = min(shards, cfg.n)
    say = progress or (lambda msg: None)

    # Partition against the run's placement (deterministic in cfg): place
    # a throwaway copy so cluster refinement sees the same layout every
    # shard will compute for itself.
    import copy
    placed = copy.deepcopy(network)
    placed.place(cfg.n, seed=cfg.seed)
    owner = partition_fleet(cfg, shards, network=placed)
    crash_times = dict(cfg.faults.crashes) if cfg.faults is not None else {}
    crash_owner = {pid: owner[pid] for pid in crash_times}

    ctx = _mp_context()
    conns, procs = [], []
    for k in range(shards):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_shard_main,
            args=(child_conn, k, owner, cfg, app, tracer is not None),
            daemon=True)
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    t0 = _time.perf_counter()
    payloads: list = [None] * shards
    try:
        # doomed pids' receive logs, mirrored from owner shards; clocks[k]
        # is a lower bound on shard k's progress, advanced by barriers and
        # query flushes — the arbitration state for peer-log queries
        doomed_log: set[tuple[int, int, int]] = set()
        clocks = [0.0] * shards
        pending_queries: list[tuple[int, int, int, int]] = []

        shard_of_conn = {id(c): k for k, c in enumerate(conns)}

        def try_answer() -> None:
            still = []
            for (k, dead, src, seq) in pending_queries:
                if clocks[crash_owner[dead]] >= crash_times[dead]:
                    conns[k].send(
                        ("answer", (dead, src, seq) in doomed_log))
                else:
                    still.append((k, dead, src, seq))
            pending_queries[:] = still

        def collect_all(expect: str) -> list:
            """One ``expect`` message from every shard, in any arrival
            order, servicing peer-log queries along the way (a shard
            blocked on a query cannot reach its barrier until another
            shard's flush makes the answer available — recv'ing shard by
            shard would deadlock the parent itself)."""
            out: list = [None] * shards
            waiting = set(range(shards))
            while waiting:
                for c in _conn_wait([conns[k] for k in waiting]):
                    k = shard_of_conn[id(c)]
                    msg = c.recv()
                    kind = msg[0]
                    if kind == "error":
                        raise SimRuntimeError(f"shard {k} failed:\n{msg[1]}")
                    if kind == "query":
                        _, clock, delta, dead, src, seq = msg
                        clocks[k] = max(clocks[k], clock)
                        doomed_log.update(delta)
                        pending_queries.append((k, dead, src, seq))
                        try_answer()
                        continue
                    if kind != expect:  # pragma: no cover - protocol guard
                        raise SimRuntimeError(
                            f"shard {k}: expected {expect!r}, got {kind!r}")
                    out[k] = msg
                    waiting.discard(k)
            return out

        next_ts: list[Optional[float]] = [
            msg[1] for msg in collect_all("ready")]

        # sealed parcels per destination shard, never unpickled here: the
        # receiving shard posts their entries under their keys; pending_at
        # is their earliest arrival, the parcels' bid for the next window
        pending: list[list[bytes]] = [[] for _ in range(shards)]
        pending_at: Optional[float] = None
        windows = 0
        while True:
            candidates = [t for t in next_ts if t is not None]
            if pending_at is not None:
                candidates.append(pending_at)
            if not candidates:
                break
            start = min(candidates)
            horizon = start + min_delay
            for k in range(shards):
                conns[k].send(("window", horizon, pending[k]))
            pending = [[] for _ in range(shards)]
            pending_at = None
            for k, msg in enumerate(collect_all("barrier")):
                _, _h, next_t, sealed, delta = msg
                next_ts[k] = next_t
                clocks[k] = max(clocks[k], horizon)
                doomed_log.update(delta)
                for dest, (at, blob) in sealed.items():
                    pending[dest].append(blob)
                    if pending_at is None or at < pending_at:
                        pending_at = at
            try_answer()
            windows += 1
        if pending_queries:  # pragma: no cover - protocol bug guard
            raise SimRuntimeError(
                f"{len(pending_queries)} peer-log queries left unanswered "
                "at termination")
        for k in range(shards):
            conns[k].send(("finish",))
        for k, msg in enumerate(collect_all("done")):
            payloads[k] = msg[1]
        shard_walls = [pl["compute_s"] for pl in payloads]
        say(f"sharded run: {shards} shards, {windows} windows, "
            f"wall {_time.perf_counter() - t0:.1f}s")
    finally:
        for c in conns:
            c.close()
        for p in procs:
            p.join(timeout=30)
            if p.is_alive():  # pragma: no cover - hang guard
                p.terminate()
                p.join()

    end_time = max(pl["end_time"] for pl in payloads)
    stats = merge_shard_stats([pl["stats"] for pl in payloads], owner,
                              end_time)
    if tracer is not None:
        tracer.samples.extend(
            _merge_samples([pl["samples"] for pl in payloads]))

    optimum = None
    for pl in payloads:
        v = pl["shared_min"]
        if v is not None and (optimum is None or v < optimum):
            optimum = v
    optimum_perm = None
    if optimum is not None:
        best_pid = None
        for pl in payloads:
            match = pl["perm_matches"].get(optimum)
            if match is not None and (best_pid is None
                                      or match[0] < best_pid):
                best_pid, optimum_perm = match
    lost, dup, rexmit, crashes, repairs = stats.fault_totals()
    result = ExperimentResult(
        protocol=cfg.protocol,
        n=cfg.n,
        makespan=stats.makespan,
        work_done_time=stats.work_done_time,
        total_units=stats.total_work_units,
        total_msgs=stats.total_msgs,
        total_steals=stats.total_steals,
        msgs_by_pid=stats.msgs_by_pid(),
        optimum=optimum,
        optimum_perm=optimum_perm,
        redundancy=sum(pl["redundancy"] for pl in payloads),
        events=stats.events_fired,
        macro_events=stats.macro_events,
        fused_quanta=stats.fused_quanta,
        events_equivalent=stats.events_equivalent,
        msgs_lost=lost,
        msgs_duplicated=dup,
        retransmits=rexmit,
        crashes=crashes,
        repairs=repairs,
    )
    return result, stats, shard_walls


__all__ = ["ShardContext", "merge_shard_stats", "partition_fleet",
           "run_sharded", "seal_parcels"]
