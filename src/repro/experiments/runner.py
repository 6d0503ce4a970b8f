"""Assemble and run complete load-balancing simulations.

This is the single entry point used by the integration tests, the examples
and every table/figure generator: pick a protocol + overlay + application,
run it on the simulated cluster, get an :class:`ExperimentResult` back.

Protocol names (the paper's):

* ``TD`` — overlay-centric on the deterministic dmax-ary tree
* ``TR`` — overlay-centric on the random recursive tree
* ``BTD`` — TD extended with one random bridge per node
* ``BTR`` — TR extended with bridges (not in the paper; matrix completion)
* ``RWS`` — random work stealing (steal-half)
* ``MW`` — master-worker of Mezmaz et al. (B&B only)
* ``AHMW`` — adaptive hierarchical master-worker (B&B only)
* ``LIFELINE`` — hypercube lifeline stealing (Saraswat et al.; the
  related-work overlay design the paper contrasts itself with — extension)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from statistics import mean, pstdev
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..apps.base import Application
from ..core.config import OCLBConfig
from ..core.oclb import OverlayWorker
from ..core.worker import WorkerConfig, WorkerProcess
from ..overlay.bridges import BridgedTreeOverlay, add_bridges
from ..overlay.tree import deterministic_tree, graft_leaf, random_tree
from ..sim.errors import SimConfigError
from ..sim.rng import RngStream
from ..sim.stats import RunStats
from ..work.sharing import get_policy

if TYPE_CHECKING:   # a live worker loads no simulator
    from ..sim.engine import Simulator
    from ..sim.faults import FaultPlan
    from ..sim.network import NetworkModel

PROTOCOLS = ("TD", "TR", "BTD", "BTR", "RWS", "MW", "AHMW", "LIFELINE")

#: What a live host runs with: the keys of :meth:`RunConfig.to_wire`, with
#: the OCLB ``wave_retry`` and ``probe_retry``.
_WIRE_FIELDS = ("protocol", "n", "dmax", "sharing", "quantum", "seed",
                "ack_timeout", "ack_max_backoff", "breaker_threshold")


def _is_int(value) -> bool:
    """An integer, and not a ``bool`` (which JSON ``true`` decodes to)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(slots=True)
class RunConfig:
    """One simulation run."""

    protocol: str = "BTD"
    n: int = 64
    dmax: int = 10
    sharing: str = "proportional"   # OCLB sharing policy (or RWS's)
    quantum: int = 64
    seed: int = 0
    network: Optional[NetworkModel] = None   # default: grid5000()
    handler_cost: float = 1e-5
    jitter: float = 0.0
    oclb: Optional[OCLBConfig] = None
    mw_update_every: int = 4
    max_events: Optional[int] = None
    #: worker-speed heterogeneity: speeds drawn uniformly from
    #: [1 - spread, 1 + spread] (0 = homogeneous, the paper's setting)
    speed_spread: float = 0.0
    #: "random" scatters the drawn speeds over pids; "fast-interior"
    #: assigns the fastest workers to the lowest pids — the interior of a
    #: TD overlay (heterogeneity-aware placement, the paper's future work)
    speed_placement: str = "random"
    #: fault injection (crashes / loss / duplication); None = clean run
    faults: Optional[FaultPlan] = None
    #: reliable-channel base retransmit delay (virtual seconds in the
    #: simulator, wall seconds in the live runtime, which overrides the
    #: default with socket-scale pacing)
    ack_timeout: float = 2e-3
    #: hard ceiling on the reliable channel's retransmit/probe backoff;
    #: None keeps the legacy ceiling of ack_timeout * 2^retries
    ack_max_backoff: Optional[float] = None
    #: consecutive retransmit timeouts before a peer's circuit breaker
    #: opens (routed around until a probe succeeds); 0 disables breaking
    breaker_threshold: int = 4
    #: quantum fusion (macro events): far fewer engine events at scale,
    #: bit-identical results (docs/simulation.md, "Scaling to 10^4
    #: nodes"); False forces one event per quantum (debugging / the
    #: fused-vs-unfused comparison itself)
    fuse: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise SimConfigError(
                f"unknown protocol {self.protocol!r}; known: {PROTOCOLS}")
        for name in ("n", "quantum", "dmax", "seed", "breaker_threshold"):
            if not _is_int(getattr(self, name)):
                raise SimConfigError(f"{name} must be an integer, "
                                     f"not {getattr(self, name)!r}")
        for name in ("n", "quantum", "dmax"):
            if getattr(self, name) < 1:
                raise SimConfigError(f"{name} must be >= 1")
        if not isinstance(self.sharing, str):
            raise SimConfigError(
                f"sharing must be a policy name, not {self.sharing!r}")
        try:
            get_policy(self.sharing)
        except ValueError:   # fixed:<f> / steal-<k> with a bad number
            raise SimConfigError(
                f"bad sharing policy {self.sharing!r}") from None
        if self.protocol in ("MW", "AHMW") and self.n < 2:
            raise SimConfigError(f"{self.protocol} needs at least 2 nodes")
        if self.speed_placement not in ("random", "fast-interior"):
            raise SimConfigError(
                f"unknown speed placement {self.speed_placement!r}")
        if self.breaker_threshold < 0:
            raise SimConfigError("breaker_threshold must be >= 0")
        if not 0 < self.ack_timeout < math.inf:
            raise SimConfigError("ack_timeout must be positive and finite")
        if (self.ack_max_backoff is not None
                and not 0 < self.ack_max_backoff < math.inf):
            raise SimConfigError("ack_max_backoff must be finite and > 0")
        if (self.faults is not None and not self.faults.is_null()
                and self.protocol in ("MW", "AHMW", "LIFELINE")):
            # only the peer protocols carry the self-healing machinery;
            # the single-master baselines have no story for a dead master
            raise SimConfigError(
                f"{self.protocol} does not support fault injection")
        if self.faults is not None:
            for pid, _t in self.faults.crashes:
                if pid >= self.n:
                    raise SimConfigError(
                        f"fault plan crashes pid {pid} but n = {self.n}")

    def to_wire(self) -> dict:
        """The JSON object a live host runs this configuration from.

        The simulator-only settings (network, faults, jitter, speeds, the
        OCLB ablation knobs, ...) have no wire form: one that is not at its
        default raises instead of being dropped on the way.  ``wave_retry``
        and ``probe_retry`` are null when ``oclb`` is None.
        """
        oclb = self.oclb
        extra = [f.name for f in fields(self)
                 if f.name not in _WIRE_FIELDS + ("oclb",)
                 and getattr(self, f.name) != f.default]
        if oclb is not None and oclb != OCLBConfig(oclb.wave_retry,
                                                   oclb.probe_retry):
            extra.append("oclb")
        if extra:
            raise SimConfigError(f"a live run cannot take the simulator-only "
                                 f"settings {extra} of {self!r}")
        return {**{name: getattr(self, name) for name in _WIRE_FIELDS},
                "wave_retry": None if oclb is None else oclb.wave_retry,
                "probe_retry": None if oclb is None else oclb.probe_retry}

    @classmethod
    def from_wire(cls, doc) -> "RunConfig":
        """The configuration :meth:`to_wire` wrote.  Strict, because the
        document arrived over a socket: every key and no other, then the
        checks of :meth:`__post_init__` (integers are not ``bool``, seconds
        are finite)."""
        keys = set(_WIRE_FIELDS) | {"wave_retry", "probe_retry"}
        if not isinstance(doc, dict) or set(doc) != keys:
            raise SimConfigError(
                f"a run is an object with the keys {sorted(keys)}: {doc!r}")
        retry = (doc["wave_retry"], doc["probe_retry"])
        try:
            return cls(**{name: doc[name] for name in _WIRE_FIELDS},
                       oclb=None if retry == (None, None)
                       else OCLBConfig(*retry))
        except TypeError as exc:   # a string where a number goes, ...
            raise SimConfigError(f"bad run {doc!r}: {exc}") from None


@dataclass(slots=True)
class ExperimentResult:
    """Everything a table/figure needs from one run."""

    protocol: str
    n: int
    makespan: float            # virtual seconds until the last node finished
    work_done_time: float      # virtual time the last work unit completed
    total_units: int           # application work units processed
    total_msgs: int
    total_steals: int          # work requests injected into the network
    msgs_by_pid: list[int]
    optimum: Optional[int] = None      # B&B: best makespan found
    optimum_perm: Optional[tuple] = None
    redundancy: int = 0                # MW: positions explored twice
    events: int = 0
    #: macro-event fusion counters (0 when fusion never engaged)
    macro_events: int = 0
    fused_quanta: int = 0
    events_equivalent: int = 0         # events an unfused engine would fire
    # fault-injection totals (all 0 in clean runs)
    msgs_lost: int = 0
    msgs_duplicated: int = 0
    retransmits: int = 0
    crashes: int = 0
    repairs: int = 0
    breaker_opens: int = 0             # circuit-breaker trips fleet-wide

    @classmethod
    def of(cls, protocol: str, n: int, stats: RunStats,
           **extra) -> "ExperimentResult":
        """The totals of a finished run's ``stats``, plus ``extra``."""
        lost, dup, rexmit, crashes, repairs = stats.fault_totals()
        totals: dict[str, Any] = dict(
            makespan=stats.makespan, work_done_time=stats.work_done_time,
            total_units=stats.total_work_units, total_msgs=stats.total_msgs,
            total_steals=stats.total_steals, msgs_by_pid=stats.msgs_by_pid(),
            msgs_lost=lost, msgs_duplicated=dup, retransmits=rexmit,
            crashes=crashes, repairs=repairs,
            breaker_opens=stats.total_breaker_opens())
        return cls(protocol=protocol, n=n, **{**totals, **extra})

    def efficiency(self, t_seq: float, workers: Optional[int] = None) -> float:
        """Parallel efficiency vs a sequential reference time."""
        w = workers if workers is not None else self.n
        if self.makespan <= 0 or w <= 0:
            return 0.0
        return t_seq / (w * self.makespan)


def _speeds(cfg: RunConfig) -> list[float]:
    if cfg.speed_spread <= 0:
        return [1.0] * cfg.n
    rng = RngStream(cfg.seed, "speeds")
    lo, hi = 1.0 - cfg.speed_spread, 1.0 + cfg.speed_spread
    speeds = [max(0.05, rng.uniform(lo, hi)) for _ in range(cfg.n)]
    if cfg.speed_placement == "fast-interior":
        speeds.sort(reverse=True)
    return speeds


def worker_factory(cfg: RunConfig, app: Application,
                   grafts: tuple = ()) -> Callable[[int], WorkerProcess]:
    """A ``pid -> WorkerProcess`` builder for one run configuration.

    Shared structures (the overlay, RWS's initial-placement draw, worker
    speeds) are built once when the factory is created, so calling the
    factory for every pid reproduces exactly what :func:`build_workers`
    always did — and the live runtime (:mod:`repro.runtime`), where each
    OS process only ever constructs *its own* pid, builds workers through
    the same code path instead of a diverging copy.

    ``grafts`` is the elastic-membership history a live joiner boots with:
    ``((pid, parent), ...)`` in pid order, extending the base overlay with
    one leaf per past join (including the joiner itself).  Only the tree
    protocols support it — membership changes are an overlay concept.
    """
    speeds = _speeds(cfg)

    def wc_for(p: int) -> WorkerConfig:
        sp = speeds[p] if p < len(speeds) else 1.0   # joiners run at 1.0
        return WorkerConfig(quantum=cfg.quantum, seed=cfg.seed,
                            speed=sp, ack_timeout=cfg.ack_timeout,
                            ack_max_backoff=cfg.ack_max_backoff,
                            breaker_threshold=cfg.breaker_threshold)

    proto, n = cfg.protocol, cfg.n
    if grafts and proto not in ("TD", "BTD", "TR", "BTR"):
        raise SimConfigError(
            f"elastic membership (grafts) needs a tree protocol, not {proto}")
    if proto in ("TD", "BTD", "TR", "BTR"):
        tree = (deterministic_tree(n, cfg.dmax) if proto.endswith("TD")
                else random_tree(n, seed=cfg.seed))
        bridge: tuple = ()
        if proto.startswith("B"):
            bridged = add_bridges(tree, seed=cfg.seed)
            tree, bridge = bridged.tree, bridged.bridge
        for j, jp in grafts:
            if j != tree.n:
                raise SimConfigError(
                    f"grafts must arrive in pid order: got {j}, "
                    f"expected {tree.n}")
            tree = graft_leaf(tree, jp)
            if proto.startswith("B"):
                # a joiner's bridge: deterministic per (seed, pid), drawn
                # over the members that preceded it (never itself)
                bridge += (RngStream(cfg.seed, "bridge-join", j)
                           .randrange(j),)
        overlay = (BridgedTreeOverlay(tree=tree, bridge=bridge)
                   if proto.startswith("B") else tree)
        return lambda p: OverlayWorker(p, app, wc_for(p), overlay, cfg.oclb,
                                       sharing=cfg.sharing)
    # "the application is pushed into [...] a random node in case of RWS"
    initial = RngStream(cfg.seed, "rws-initial").randrange(n)
    sharing = cfg.sharing if cfg.sharing != "proportional" else "half"
    if proto == "RWS":
        from ..baselines.rws import RWSWorker
        return lambda p: RWSWorker(p, n, app, wc_for(p),
                                   initial_pid=initial, sharing=sharing)
    if proto == "MW":
        from ..baselines.master_worker import MWMaster, MWWorker

        def make_mw(p: int) -> WorkerProcess:
            if p == 0:
                return MWMaster(0, n, app, wc_for(0))
            return MWWorker(p, n, app, wc_for(p),
                            update_every=cfg.mw_update_every)
        return make_mw
    if proto == "AHMW":
        from ..baselines.ahmw import AHMW_DEGREE, AHMWNode
        tree = deterministic_tree(n, AHMW_DEGREE)
        return lambda p: AHMWNode(p, app, wc_for(p), tree)
    if proto == "LIFELINE":
        from ..baselines.lifeline import LifelineWorker
        return lambda p: LifelineWorker(p, n, app, wc_for(p),
                                        initial_pid=initial, sharing=sharing)
    raise SimConfigError(f"unhandled protocol {proto}")


def build_workers(sim: Simulator, cfg: RunConfig,
                  app: Application) -> list[WorkerProcess]:
    """Instantiate the protocol's process population on ``sim``."""
    make = worker_factory(cfg, app)
    return [sim.add_process(make(p)) for p in range(cfg.n)]


def run_once(cfg: RunConfig, app: Application, tracer=None,
             metrics=None) -> ExperimentResult:
    """Run one complete simulation to termination.

    ``tracer``: optional :class:`repro.sim.trace.Tracer` (or streaming
    :class:`repro.obs.export.TraceWriter`) attached to every worker.
    ``metrics``: optional :class:`repro.obs.registry.MetricsRegistry` the
    engine and workers publish into. Both are purely observational: an
    instrumented run is bit-identical to a bare one.
    """
    return run_instrumented(cfg, app, tracer=tracer, metrics=metrics)[0]


def run_instrumented(cfg: RunConfig, app: Application, tracer=None,
                     metrics=None) -> tuple[ExperimentResult, RunStats]:
    """Like :func:`run_once` but also hands back the raw :class:`RunStats`
    (per-process counters — what :mod:`repro.obs.report` builds from)."""
    from ..sim.engine import Simulator
    from ..sim.network import grid5000
    network = cfg.network if cfg.network is not None else grid5000(
        handler_cost=cfg.handler_cost, jitter=cfg.jitter)
    sim = Simulator(network=network, seed=cfg.seed, faults=cfg.faults,
                    metrics=metrics, fuse=cfg.fuse)
    workers = build_workers(sim, cfg, app)
    if tracer is not None:
        for w in workers:
            w.tracer = tracer
    stats: RunStats = sim.run(max_events=cfg.max_events)
    optimum = None
    optimum_perm = None
    redundancy = 0
    for w in workers:
        if w.shared is not None:
            value = app.shared_value(w.shared)
            if value is not None and (optimum is None or value < optimum):
                optimum = value
        redundancy += getattr(w, "redundancy", 0)
    if optimum is not None:
        # the incumbent comes from a worker that actually *found* the value
        for w in workers:
            if (w.shared is not None
                    and getattr(w.shared, "perm_value", None) == optimum):
                optimum_perm = w.shared.perm
                break
    result = ExperimentResult.of(
        cfg.protocol, cfg.n, stats, optimum=optimum,
        optimum_perm=optimum_perm, redundancy=redundancy,
        events=stats.events_fired, macro_events=stats.macro_events,
        fused_quanta=stats.fused_quanta,
        events_equivalent=stats.events_equivalent)
    return result, stats


@dataclass(slots=True)
class TrialStats:
    """Aggregate over repeated trials (Table I reports these four)."""

    t_avg: float
    t_std: float
    t_max: float
    t_min: float
    results: list[ExperimentResult] = field(default_factory=list)

    @classmethod
    def of(cls, results: list[ExperimentResult]) -> "TrialStats":
        """Aggregate trial results into t_avg / sigma / t_max / t_min."""
        times = [r.makespan for r in results]
        return cls(t_avg=mean(times),
                   t_std=pstdev(times) if len(times) > 1 else 0.0,
                   t_max=max(times), t_min=min(times), results=results)


def cell_configs(cfg: RunConfig, trials: int) -> list[RunConfig]:
    """The canonical per-trial expansion of one grid configuration.

    Trial ``t`` runs with seed ``cfg.seed + 1000 * t`` (paper: 10 trials).
    Every execution path — the serial loop, the multiprocess grid runner
    and the result cache — derives its cells from this single function, so
    trial seeding can never diverge between them.
    """
    if trials < 1:
        raise SimConfigError("trials must be >= 1")
    return [replace(cfg, seed=cfg.seed + 1000 * t)
            for t in range(trials)]


def run_trials(cfg: RunConfig, app_factory: Callable[[], Application],
               trials: int, *, jobs: Optional[int] = None,
               use_cache: Optional[bool] = None,
               progress: Optional[Callable] = None) -> TrialStats:
    """Repeat a run ``trials`` times with derived seeds (paper: 10 trials).

    ``app_factory`` may be a plain zero-argument callable (executed with
    the exact historical serial loop) or an application *spec* from
    :mod:`repro.experiments.specs`, which additionally enables the
    multiprocess pool (``jobs``/``$REPRO_JOBS``) and the on-disk result
    cache.  Results are bit-identical across all paths.
    """
    from .parallel import run_cells  # local import: parallel imports us
    cells = [(c, app_factory) for c in cell_configs(cfg, trials)]
    results = run_cells(cells, jobs=jobs, use_cache=use_cache,
                        progress=progress)
    return TrialStats.of(results)


__all__ = ["RunConfig", "ExperimentResult", "TrialStats", "PROTOCOLS",
           "build_workers", "cell_configs", "run_instrumented", "run_once",
           "run_trials", "worker_factory"]
