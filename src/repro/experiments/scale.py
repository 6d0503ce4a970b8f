"""Fleet-scale sweeps: the macro-event engine at 10^4 simulated nodes.

The quantum-fusion fast path
(:meth:`repro.sim.engine.Simulator.compute`) collapses the
per-quantum event class — the dominant one once every worker is busy —
into one engine event per fused block, so runs at 10,000 nodes complete
on a single host.  This module is the harness around that claim:

* :func:`scale_run` executes one protocol x application cell at fleet
  size, wall-clocks it, and checks the **conservation oracle**: the
  total work units processed must equal the workload's exact size
  (synthetic: ``units_per_node * n``; UTS: the preset's measured node
  count).  Conservation is schedule-independent, so it holds no matter
  how simultaneous events are ordered — the right invariant for runs
  too large to diff trace-by-trace.
* :func:`scale_sweep` runs the {TD, BTD, RWS} x {UTS, synthetic} grid
  fused, plus one *unfused twin* of the synthetic TD cell to measure
  the engine speedup in events-equivalent per wall second
  (``RunStats.events_equivalent`` counts the events an unfused engine
  would have fired for the same run).

On a multi-core host the sweep can additionally split each run over
shard processes (:mod:`repro.sim.shard` — conservative-lookahead
parallel DES): ``--shards K`` partitions the fleet by overlay subtree
into K single-core event loops that advance in lock-step windows of
``min_delay()``. The conservation oracle applies unchanged — it is
schedule-independent — and the per-cell report carries the wall/CPU
split plus per-shard compute seconds.

CLI (``python -m repro.experiments scale``)::

    python -m repro.experiments scale --nodes 10000 --json sweep.json
    python -m repro.experiments scale --nodes 2000 --units-per-node 5000 \
        --preset bin_small --no-twin     # CI-sized smoke
    python -m repro.experiments scale --nodes 100000 --shards 0 \
        --units-per-node 200 --protocols TD --apps synthetic --no-twin

The committed 10k recording lives in ``benchmarks/BENCH_scale.json``
(``python benchmarks/record.py scale``); CI re-records the quick variant
and gates it with ``benchmarks/check_regression.py``. The sharded
recording is ``benchmarks/BENCH_shard.json`` (``record.py shard``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from ..core.config import OCLBConfig
from ..sim.errors import SimConfigError
from ..sim.network import uniform_network
from ..uts.params import get_preset
from .runner import RunConfig, run_instrumented
from .specs import SyntheticSpec, UTSSpec

#: Default knobs of the headline sweep. A 10 ms flat latency models the
#: WAN/grid regime a 10^4-node fleet actually lives in (Grid'5000
#: inter-site RTTs are ~10-20 ms; grid5000's modelled topology caps out
#: at 1312 cores and cannot place 10k processes) — and a long RTT is
#: exactly where fusion shines: the horizon window covers hundreds of
#: 16 us quanta, so whole stretches of compute collapse into single
#: events. Quantum 16 keeps stealing responsive — affordable precisely
#: because fusion decouples engine cost from quantum granularity.
DEFAULT_LATENCY = 1e-2
DEFAULT_QUANTUM = 16
DEFAULT_UNITS_PER_NODE = 50_000
DEFAULT_UNIT_COST = 1e-6
DEFAULT_PROTOCOLS = ("TD", "BTD", "RWS")
DEFAULT_APPS = ("synthetic", "uts")


def fleet_network(n: int, latency: float = DEFAULT_LATENCY,
                  handler_cost: float = 1e-5):
    """A flat cluster big enough to place ``n`` processes."""
    return uniform_network(cores=max(n, 4096), latency=latency,
                           handler_cost=handler_cost)


def fleet_pacing(latency: float) -> tuple[OCLBConfig, float]:
    """Protocol retry timers scaled to the fleet's round-trip time.

    The stock ``OCLBConfig`` paces idle probing at 250 µs and the reliable
    channel retransmits after 2 ms — tuned for grid5000's 50–500 µs links.
    On a 1 ms+ fleet link those constants poll *faster than a round trip*:
    every idle node fires several redundant probe rounds per RTT and every
    work transfer retransmits before its ACK can possibly return, drowning
    the run in messages that carry no information.  Polling slower than
    an RTT is the classic fix; results are unchanged (the protocols are
    correct under any pacing), only the junk traffic disappears.

    Returns ``(oclb_config, ack_timeout)`` for :class:`RunConfig`.
    """
    rtt = 2.0 * latency
    oclb = OCLBConfig(wave_retry=max(2e-3, 2.0 * rtt),
                      probe_retry=max(2.5e-4, rtt))
    ack_timeout = max(2e-3, 2.0 * rtt)
    return oclb, ack_timeout


@dataclass(slots=True)
class ScaleRow:
    """One cell of the sweep, with its engine-side throughput numbers."""

    protocol: str
    app: str                  # "synthetic" or the UTS preset name
    n: int
    fuse: bool
    makespan: float           # virtual seconds
    wall_s: float             # host seconds
    events: int               # engine events actually fired
    events_equivalent: int    # events an unfused engine would have fired
    macro_events: int
    fused_quanta: int
    total_units: int
    total_msgs: int
    total_steals: int
    shards: int = 1           # event-loop processes the run was split over
    cpu_s: float = 0.0        # CPU seconds (sum over shards when sharded)
    shard_walls: tuple = ()   # per-shard compute seconds (empty serial)

    @property
    def fused_ratio(self) -> float:
        """Fraction of equivalent events absorbed by fusion."""
        if self.events_equivalent <= 0:
            return 0.0
        return (self.fused_quanta - self.macro_events) / self.events_equivalent

    @property
    def eq_per_s(self) -> float:
        return self.events_equivalent / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> dict:
        out = asdict(self)
        out["fused_ratio"] = round(self.fused_ratio, 4)
        out["eq_per_s"] = round(self.eq_per_s)
        out["events_per_s"] = round(self.events_per_s)
        out["wall_s"] = round(self.wall_s, 2)
        out["cpu_s"] = round(self.cpu_s, 2)
        out["shard_walls"] = [round(w, 2) for w in self.shard_walls]
        return out


def scale_cell(protocol: str, app: str, n: int, *,
               quantum: int = DEFAULT_QUANTUM, seed: int = 42,
               latency: float = DEFAULT_LATENCY,
               units_per_node: int = DEFAULT_UNITS_PER_NODE,
               unit_cost: float = DEFAULT_UNIT_COST,
               preset: str = "bin_large", fuse: bool = True):
    """One fleet-scale cell: ``(RunConfig, app spec, exact unit count)``."""
    if app == "synthetic":
        spec = SyntheticSpec(units_per_node * n, unit_cost=unit_cost)
        expected = spec.units
    elif app == "uts":
        spec, expected = UTSSpec(preset), get_preset(preset).nodes
        if expected <= 0:
            raise SimConfigError(
                f"preset {preset!r} has no recorded exact size; the scale "
                "sweep needs one for its conservation oracle")
    else:
        raise SimConfigError(f"unknown scale app {app!r}; "
                             "known: synthetic, uts")
    oclb, ack_timeout = fleet_pacing(latency)
    cfg = RunConfig(protocol=protocol, n=n, quantum=quantum, seed=seed,
                    network=fleet_network(n, latency), oclb=oclb,
                    ack_timeout=ack_timeout, fuse=fuse)
    return cfg, spec, expected


def scale_run(protocol: str, app: str, n: int, *,
              quantum: int = DEFAULT_QUANTUM, seed: int = 42,
              latency: float = DEFAULT_LATENCY,
              units_per_node: int = DEFAULT_UNITS_PER_NODE,
              unit_cost: float = DEFAULT_UNIT_COST,
              preset: str = "bin_large", fuse: bool = True,
              shards: int = 1) -> ScaleRow:
    """Run one fleet-scale cell (:func:`scale_cell`) and verify work
    conservation.

    ``shards > 1`` splits the run over that many OS processes
    (:func:`repro.sim.shard.run_sharded`); the conservation oracle is
    checked identically — it holds under any event schedule.
    """
    cfg, spec, expected = scale_cell(
        protocol, app, n, quantum=quantum, seed=seed, latency=latency,
        units_per_node=units_per_node, unit_cost=unit_cost, preset=preset,
        fuse=fuse)
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    if shards > 1:
        from ..sim.shard import run_sharded
        res, _stats, shard_walls = run_sharded(cfg, spec, shards)
        cpu = sum(shard_walls)
    else:
        res, _stats = run_instrumented(cfg, spec.build())
        shard_walls = []
        cpu = time.process_time() - cpu0
    wall = time.perf_counter() - t0
    if res.total_units != expected:
        raise RuntimeError(
            f"conservation violated: {protocol}/{app} n={n} processed "
            f"{res.total_units} units, expected exactly {expected}")
    return ScaleRow(
        protocol=protocol,
        app=app if app == "synthetic" else preset,
        n=n, fuse=fuse,
        makespan=res.makespan, wall_s=wall,
        events=res.events, events_equivalent=res.events_equivalent,
        macro_events=res.macro_events, fused_quanta=res.fused_quanta,
        total_units=res.total_units, total_msgs=res.total_msgs,
        total_steals=res.total_steals,
        shards=max(1, shards), cpu_s=cpu, shard_walls=tuple(shard_walls))


def scale_sweep(nodes: int, protocols=DEFAULT_PROTOCOLS, apps=DEFAULT_APPS,
                *, quantum: int = DEFAULT_QUANTUM, seed: int = 42,
                latency: float = DEFAULT_LATENCY,
                units_per_node: int = DEFAULT_UNITS_PER_NODE,
                unit_cost: float = DEFAULT_UNIT_COST,
                preset: str = "bin_large", twin: bool = True,
                shards: int = 1, progress=None) -> dict:
    """The full grid, fused — plus the unfused synthetic-TD twin.

    Returns a JSON-ready document: ``rows`` (fused cells), optionally
    ``twin`` (the unfused comparison run) and ``fused_speedup`` (fused
    events-equivalent/s over unfused events/s on the same workload —
    the engine-throughput multiple fusion buys).
    """
    say = progress or (lambda msg: None)
    rows: list[ScaleRow] = []
    for app in apps:
        for proto in protocols:
            say(f"{proto:4s} x {app:9s} n={nodes} fused "
                f"shards={shards} ...")
            row = scale_run(proto, app, nodes, quantum=quantum, seed=seed,
                            latency=latency, units_per_node=units_per_node,
                            unit_cost=unit_cost, preset=preset,
                            shards=shards)
            say(f"{proto:4s} x {app:9s} done: makespan {row.makespan:.3f}s "
                f"wall {row.wall_s:.1f}s ratio {row.fused_ratio:.3f}")
            rows.append(row)
    import os as _os
    doc: dict = {
        "nodes": nodes,
        "quantum": quantum,
        "seed": seed,
        "latency": latency,
        "units_per_node": units_per_node,
        "unit_cost": unit_cost,
        "preset": preset,
        "shards": shards,
        "cores": _os.cpu_count(),
        "rows": [r.to_json() for r in rows],
    }
    if twin and "synthetic" in apps and protocols:
        twin_proto = protocols[0]
        say(f"{twin_proto:4s} x synthetic n={nodes} unfused twin ...")
        u = scale_run(twin_proto, "synthetic", nodes, quantum=quantum,
                      seed=seed, latency=latency,
                      units_per_node=units_per_node, unit_cost=unit_cost,
                      preset=preset, fuse=False, shards=shards)
        f = next(r for r in rows
                 if r.protocol == twin_proto and r.app == "synthetic")
        speedup = f.eq_per_s / u.events_per_s if u.events_per_s else 0.0
        say(f"twin done: wall {u.wall_s:.1f}s vs {f.wall_s:.1f}s fused "
            f"-> {speedup:.2f}x events-equivalent/s")
        doc["twin"] = u.to_json()
        doc["fused_speedup"] = round(speedup, 2)
        doc["twin_makespan_match"] = (u.makespan == f.makespan)
    return doc


def render_sweep(doc: dict) -> str:
    """Plain-text table of a sweep document."""
    shard_note = (f" shards={doc['shards']} (cores={doc.get('cores')})"
                  if doc.get("shards", 1) > 1 else "")
    lines = [f"fleet-scale sweep: n={doc['nodes']} quantum={doc['quantum']} "
             f"latency={doc['latency']:g}s seed={doc['seed']}{shard_note}",
             f"{'protocol':9s} {'app':10s} {'makespan':>10s} {'wall':>8s} "
             f"{'events':>12s} {'eq-events':>12s} {'fused%':>7s} "
             f"{'eq/s':>10s}",
             "-" * 84]
    for r in doc["rows"]:
        lines.append(
            f"{r['protocol']:9s} {r['app']:10s} {r['makespan']:>10.4f} "
            f"{r['wall_s']:>7.1f}s {r['events']:>12,} "
            f"{r['events_equivalent']:>12,} {r['fused_ratio']:>6.1%} "
            f"{r['eq_per_s']:>10,}")
    if "twin" in doc:
        t = doc["twin"]
        lines.append(
            f"{t['protocol']:9s} {t['app']:10s} {t['makespan']:>10.4f} "
            f"{t['wall_s']:>7.1f}s {t['events']:>12,} "
            f"{t['events_equivalent']:>12,} {'unfused':>7s} "
            f"{t['events_per_s']:>10,}")
        lines.append(f"fused engine speedup: {doc['fused_speedup']:.2f}x "
                     "events-equivalent per wall second"
                     + ("" if doc.get("twin_makespan_match")
                        else "  (makespans differ: a fused run must "
                             "equal its unfused twin)"))
    return "\n".join(lines)


def scale_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments scale",
        description="Fleet-scale sweep of the macro-event engine "
                    "(10^4-node runs on one host).")
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--protocols", default=",".join(DEFAULT_PROTOCOLS),
                        help="comma-separated (default: TD,BTD,RWS)")
    parser.add_argument("--apps", default=",".join(DEFAULT_APPS),
                        help="comma-separated out of synthetic,uts")
    parser.add_argument("--preset", default="bin_large",
                        help="UTS preset for the uts cells")
    parser.add_argument("--quantum", type=int, default=DEFAULT_QUANTUM)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--latency", type=float, default=DEFAULT_LATENCY)
    parser.add_argument("--units-per-node", type=int,
                        default=DEFAULT_UNITS_PER_NODE)
    parser.add_argument("--unit-cost", type=float, default=DEFAULT_UNIT_COST)
    parser.add_argument("--no-twin", action="store_true",
                        help="skip the unfused comparison run")
    parser.add_argument("--shards", "--jobs", dest="shards", type=int,
                        default=None,
                        help="split each run over this many shard processes "
                             "(conservative-lookahead parallel DES; see "
                             "docs/simulation.md). Resolution order matches "
                             "the grid runner: explicit --shards/--jobs > "
                             "$REPRO_JOBS > 1; 0 = all cores")
    parser.add_argument("--json", default=None,
                        help="write the sweep document here")
    args = parser.parse_args(argv)

    from .parallel import resolve_jobs
    shards = resolve_jobs(args.shards)
    doc = scale_sweep(
        args.nodes,
        protocols=tuple(p.strip() for p in args.protocols.split(",") if p),
        apps=tuple(a.strip() for a in args.apps.split(",") if a),
        quantum=args.quantum, seed=args.seed, latency=args.latency,
        units_per_node=args.units_per_node, unit_cost=args.unit_cost,
        preset=args.preset, twin=not args.no_twin, shards=shards,
        progress=lambda msg: print(msg, file=sys.stderr, flush=True))
    print(render_sweep(doc))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


__all__ = ["ScaleRow", "fleet_network", "fleet_pacing", "scale_cell",
           "render_sweep", "scale_main", "scale_run", "scale_sweep"]
