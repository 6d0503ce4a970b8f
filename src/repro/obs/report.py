"""Run reports: one simulation distilled into tables a human can read.

The paper's §IV argues protocol quality from run-internal distributions —
who did the work, who moved it, who sat idle. :func:`build_report` turns
the artefacts of one finished run (:class:`~repro.sim.stats.RunStats`, an
optional :class:`~repro.sim.trace.Tracer`, an optional
:class:`~repro.obs.registry.MetricsRegistry`) into a :class:`RunReport`
with a human rendering (:meth:`RunReport.render`) and a JSON summary
(:meth:`RunReport.to_json`) whose per-node work totals sum *exactly* to the
run's total work units — the invariant the observability tests pin.

The ``python -m repro.experiments report`` CLI
(:mod:`repro.experiments.runreport`) is a thin wrapper over this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..experiments.report import banner, fmt, render_table
from ..experiments.runner import ExperimentResult, RunConfig
from ..sim.stats import RunStats
from ..sim.trace import CIRCUIT, QUANTUM, TRANSFER, Tracer
from .registry import MetricsRegistry

#: JSON summary schema; bump on incompatible shape changes.
REPORT_SCHEMA_VERSION = 1

#: Above this worker count the full steal matrix is elided for the top
#: transfer edges (a 1000x1000 table helps nobody).
_MATRIX_LIMIT = 32


def load_entropy(units: list[int]) -> Optional[float]:
    """Normalised Shannon entropy of the per-node work distribution.

    1.0 = perfectly even load, 0.0 = one node did everything (the
    distributional balance metric of the BON line of work). ``None`` when
    no work was done or there is a single node.
    """
    total = sum(units)
    if total <= 0 or len(units) < 2:
        return None
    h = 0.0
    for u in units:
        if u > 0:
            p = u / total
            h -= p * math.log(p)
    return h / math.log(len(units))


def breaker_summary(tracer: Tracer, makespan: float) -> list[dict]:
    """Per-(owner, peer) circuit-breaker history from CIRCUIT samples.

    CIRCUIT samples encode transitions as ``value = peer * 4 + state``
    (0 closed / 1 open / 2 half-open) on the breaker owner's timeline
    (:mod:`repro.sim.trace`). Folding them back out makes routed-around
    peers visible in run reports: how often each breaker tripped
    (``opens``), how many half-open probes it sent (``probes``), the total
    time the peer spent routed around (``open_s`` — a still-open breaker
    accrues until ``makespan``), and the state it ended the run in.
    """
    hist: dict[tuple[int, int], dict] = {}
    for s in sorted((s for s in tracer.samples if s.kind == CIRCUIT),
                    key=lambda s: s.time):
        peer, state = divmod(int(s.value), 4)
        row = hist.setdefault((s.pid, peer), {
            "owner": s.pid, "peer": peer, "opens": 0, "probes": 0,
            "open_s": 0.0, "state": "closed", "_opened_at": None})
        if state == 1:                      # -> open (trip or failed probe)
            if row["_opened_at"] is None:
                row["opens"] += 1
                row["_opened_at"] = s.time
            row["state"] = "open"
        elif state == 2:                    # -> half-open (probe in flight)
            row["probes"] += 1
            row["state"] = "half-open"
        else:                               # -> closed (probe answered)
            if row["_opened_at"] is not None:
                row["open_s"] += s.time - row["_opened_at"]
                row["_opened_at"] = None
            row["state"] = "closed"
    out = []
    for key in sorted(hist):
        row = hist[key]
        opened_at = row.pop("_opened_at")
        if opened_at is not None:           # never closed: accrue to the end
            row["open_s"] += max(0.0, makespan - opened_at)
        out.append(row)
    return out


def steal_matrix(tracer: Tracer) -> dict[tuple[int, int], int]:
    """(src, dst) -> number of WORK transfers, from TRANSFER samples."""
    matrix: dict[tuple[int, int], int] = {}
    for s in tracer.samples:
        if s.kind == TRANSFER:
            key = (int(s.value), s.pid)
            matrix[key] = matrix.get(key, 0) + 1
    return matrix


@dataclass
class RunReport:
    """Everything the report CLI renders/exports for one run."""

    meta: dict
    totals: dict
    per_node: list[dict]
    load: dict
    idle_breakdown: dict
    faults: dict
    transfers: list[dict] = field(default_factory=list)
    utilization: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    breakers: list[dict] = field(default_factory=list)
    #: live runs: per-link frame/byte traffic, counted by each worker's
    #: mesh; empty for simulated runs
    links: list[dict] = field(default_factory=list)

    # -- structured form -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe summary (schema-versioned)."""
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "meta": self.meta,
            "totals": self.totals,
            "per_node": self.per_node,
            "load": self.load,
            "idle_breakdown": self.idle_breakdown,
            "faults": self.faults,
            "transfers": self.transfers,
            "utilization": self.utilization,
            "metrics": self.metrics,
            "breakers": self.breakers,
            "links": self.links,
        }

    # -- human form ----------------------------------------------------------

    def render(self) -> str:
        m, t = self.meta, self.totals
        parts = [banner(f"run report: {m.get('app', '?')} / "
                        f"{m.get('protocol', '?')} n={m.get('n', '?')} "
                        f"seed={m.get('seed', '?')}")]
        parts.append(
            f"makespan {t['makespan'] * 1e3:,.3f} ms | "
            f"{t['work_units']:,} work units | {t['msgs']:,} msgs | "
            f"{t['steals']:,} steal requests "
            f"({100 * t['steal_success_rate']:.0f}% served) | "
            f"{t['events']:,} events")
        cached = m.get("cached_cell")
        if cached is not None:
            parts.append(f"grid cell {m.get('cell_key', '?')[:16]}...: "
                         + ("cache hit (fresh run matches cached result)"
                            if cached else "not in cache"))
        parts.append("")
        parts.append(render_table(
            ["pid", "units", "share%", "msgs out", "msgs in", "steals",
             "served", "busy ms", "handler ms", "idle ms", "util%", "state"],
            [[p["pid"], p["units"], p["share_pct"], p["msgs_sent"],
              p["msgs_received"], p["steals_attempted"],
              p["steals_successful"], p["busy_s"] * 1e3,
              p["handler_s"] * 1e3, p["idle_s"] * 1e3, p["util_pct"],
              p["state"]] for p in self.per_node],
            title="per-node load", digits=2))
        parts.append("")
        ld = self.load
        parts.append(
            f"load balance: entropy {fmt(ld['entropy'], 3)} "
            f"(1 = even) | imbalance max/mean {fmt(ld['imbalance'], 2)} | "
            f"units min {ld['min']:,} / mean {ld['mean']:,.1f} / "
            f"max {ld['max']:,}")
        ib = self.idle_breakdown
        parts.append(
            f"fleet time: busy {100 * ib['busy_frac']:.1f}% | handler "
            f"{100 * ib['handler_frac']:.1f}% | idle "
            f"{100 * ib['idle_frac']:.1f}% of "
            f"{ib['node_seconds'] * 1e3:,.1f} node-ms")
        if any(self.faults.values()):
            f = self.faults
            parts.append(
                f"faults: {f['crashes']} crashes | {f['msgs_lost']} lost | "
                f"{f['msgs_duplicated']} duplicated | "
                f"{f['retransmits']} retransmits | {f['repairs']} repairs | "
                f"{f.get('breaker_opens', 0)} breaker trips")
        if self.breakers:
            parts.append("")
            parts.append(render_table(
                ["owner", "peer", "opens", "probes", "open ms", "state"],
                [[b["owner"], b["peer"], b["opens"], b["probes"],
                  b["open_s"] * 1e3, b["state"]] for b in self.breakers],
                title="circuit breakers (routed-around peers)", digits=2))
        if self.transfers:
            parts.append("")
            parts.append(render_table(
                ["from", "to", "transfers"],
                [[e["src"], e["dst"], e["count"]] for e in self.transfers],
                title=f"work transfer matrix "
                      f"({'top edges' if self.meta.get('matrix_elided') else 'all edges'})"))
        if self.links:
            parts.append("")
            parts.append(render_table(
                ["from", "to", "frames", "payload kB"],
                [[e["src"], e["dst"], e["frames"], e["bytes"] / 1e3]
                 for e in self.links],
                title=f"per-link traffic "
                      f"({'top links' if self.meta.get('links_elided') else 'all links'})",
                digits=2))
        if self.utilization:
            parts.append("")
            parts.append(render_table(
                ["t ms", "busy%"],
                [[u["t"] * 1e3, 100 * u["busy_frac"]]
                 for u in self.utilization],
                title="utilization profile", digits=1))
        if self.metrics:
            parts.append("")
            rows = []
            for name, snap in self.metrics.items():
                if snap["type"] == "histogram":
                    rows.append([name, snap["count"], fmt(snap["mean"], 6),
                                 fmt(snap["min"], 6), fmt(snap["max"], 6)])
                else:
                    rows.append([name, snap["value"], None, None, None])
            parts.append(render_table(
                ["metric", "count/value", "mean", "min", "max"], rows,
                title="metrics registry", digits=6))
        return "\n".join(parts)


def build_report(cfg: RunConfig, result: ExperimentResult, stats: RunStats,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 app: str = "?", unit_cost: float = 0.0,
                 extra_meta: Optional[dict] = None,
                 links: Optional[dict] = None) -> RunReport:
    """Assemble a :class:`RunReport` from one finished run's artefacts.

    ``links`` is a live run's per-link traffic: ``(src, dst) ->
    (frames, payload_bytes)``, counted by each worker's mesh.
    """
    makespan = stats.makespan
    total_units = stats.total_work_units
    meta = {"app": app, "protocol": cfg.protocol, "n": cfg.n,
            "seed": cfg.seed, "quantum": cfg.quantum,
            "sharing": cfg.sharing}
    if extra_meta:
        meta.update(extra_meta)

    per_node = []
    units = []
    busy_sum = handler_sum = idle_sum = lifetime_sum = 0.0
    for p in stats.per_process:
        # a crashed node's clock stops at its crash; everyone else is
        # accountable until the run's makespan
        lifetime = min(makespan, p.crash_time)
        idle = p.idle_time(makespan)
        units.append(p.work_units)
        busy_sum += p.busy_time
        handler_sum += p.handler_time
        idle_sum += idle
        lifetime_sum += lifetime
        per_node.append({
            "pid": p.pid,
            "units": p.work_units,
            "share_pct": (100.0 * p.work_units / total_units
                          if total_units else 0.0),
            "msgs_sent": p.msgs_sent,
            "msgs_received": p.msgs_received,
            "steals_attempted": p.steals_attempted,
            "steals_successful": p.steals_successful,
            "busy_s": p.busy_time,
            "handler_s": p.handler_time,
            "idle_s": idle,
            "util_pct": (100.0 * p.busy_time / lifetime
                         if lifetime > 0 else 0.0),
            "state": "crashed" if p.crashes else "ok",
        })

    totals = {
        "makespan": makespan,
        "work_done_time": stats.work_done_time,
        "work_units": total_units,
        "msgs": stats.total_msgs,
        "steals": stats.total_steals,
        "steals_ok": stats.total_steals_ok,
        "steal_success_rate": (stats.total_steals_ok / stats.total_steals
                               if stats.total_steals else 0.0),
        "events": stats.events_fired,
        "optimum": result.optimum,
    }
    load = {
        "entropy": load_entropy(units),
        "imbalance": (max(units) * len(units) / sum(units)
                      if units and sum(units) else None),
        "min": min(units) if units else 0,
        "mean": (sum(units) / len(units)) if units else 0.0,
        "max": max(units) if units else 0,
    }
    idle_breakdown = {
        "node_seconds": lifetime_sum,
        "busy_frac": busy_sum / lifetime_sum if lifetime_sum else 0.0,
        "handler_frac": handler_sum / lifetime_sum if lifetime_sum else 0.0,
        "idle_frac": idle_sum / lifetime_sum if lifetime_sum else 0.0,
    }
    faults = {
        "crashes": result.crashes,
        "msgs_lost": result.msgs_lost,
        "msgs_duplicated": result.msgs_duplicated,
        "retransmits": result.retransmits,
        "repairs": result.repairs,
        "breaker_opens": result.breaker_opens,
    }

    link_rows: list[dict] = []
    if links:
        edges = sorted(links.items(), key=lambda kv: (-kv[1][0], kv[0]))
        if len(edges) > _MATRIX_LIMIT:
            meta["links_elided"] = True
            edges = edges[:_MATRIX_LIMIT]
        link_rows = [{"src": s, "dst": d, "frames": fc, "bytes": bc}
                     for (s, d), (fc, bc) in edges]

    transfers: list[dict] = []
    utilization: list[dict] = []
    breakers: list[dict] = []
    if tracer is not None:
        breakers = breaker_summary(tracer, makespan)
        matrix = steal_matrix(tracer)
        edges = sorted(matrix.items(), key=lambda kv: (-kv[1], kv[0]))
        if cfg.n > _MATRIX_LIMIT and len(edges) > _MATRIX_LIMIT:
            meta["matrix_elided"] = True
            edges = edges[:_MATRIX_LIMIT]
        transfers = [{"src": s, "dst": d, "count": c}
                     for (s, d), c in edges]
        if makespan > 0 and unit_cost > 0 and any(
                s.kind == QUANTUM for s in tracer.samples):
            for t, frac in tracer.utilization_profile(
                    makespan, unit_cost, cfg.n, buckets=10):
                utilization.append({"t": t, "busy_frac": frac})

    return RunReport(meta=meta, totals=totals, per_node=per_node, load=load,
                     idle_breakdown=idle_breakdown, faults=faults,
                     transfers=transfers, utilization=utilization,
                     metrics=metrics.snapshot() if metrics is not None
                     else {}, breakers=breakers, links=link_rows)


__all__ = ["REPORT_SCHEMA_VERSION", "RunReport", "breaker_summary",
           "build_report", "load_entropy", "steal_matrix"]
