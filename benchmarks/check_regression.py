#!/usr/bin/env python
"""Regression gate: fresh benchmark recording vs the committed baseline.

Usage (what the ``bench-gate`` CI job runs)::

    PYTHONPATH=src python benchmarks/record.py kernels --quick \
        --out /tmp/BENCH_fresh.json
    python benchmarks/check_regression.py --fresh /tmp/BENCH_fresh.json

Each metric's fresh ``after`` throughput must stay within its tolerance
band of the committed ``benchmarks/BENCH_kernels.json``; any metric below
``baseline * (1 - tolerance)`` fails the gate (non-zero exit). Bands are
per-metric (:data:`TOLERANCES`): the event-queue rate is held to 3% — the
observability hooks of ``repro.obs`` must stay no-ops when no registry is
attached, and a hot-path branch would show up exactly here — while the
NumPy-heavy kernels get wider bands because their throughput moves with
machine load. Latency-style metrics (:data:`LOWER_IS_BETTER`) band
upward instead: they fail above ``baseline * (1 + tolerance)``.

Both recordings carry a machine-calibration rate (a raw-heapq loop in
``record.py`` that no library change can touch). When present on both
sides, every fresh rate is normalised by the baseline/fresh calibration
ratio before banding, so the gate compares *code* speed rather than
*machine* speed: it corrects both a different CI machine and a busy
recording machine (all rates sag in unison — so does the yardstick).

``--tol-scale`` (or ``$BENCH_TOL_SCALE``) multiplies every band for
known-noisy environments; improvements never fail the gate, but a big one
prints a hint to re-record the baseline so the gate stays tight.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: Per-metric relative tolerance (fraction below baseline that still
#: passes). The fallback band covers metrics added after this file.
TOLERANCES = {
    "event_queue_ops_per_s": 0.03,
    "bnb_lb1_nodes_per_s": 0.25,
    "bnb_llrk_nodes_per_s": 0.25,
    "bnb_llrk_full_nodes_per_s": 0.25,
    # BnBEngine.explore(work, shared, q) at the protocols' quanta: a
    # resumed call costs no stack rebuild, so these sit near the bulk
    # rates — a cursor that stops validating halves q16, far outside the
    # band
    "bnb_lb1_q16_nodes_per_s": 0.25,
    "bnb_lb1_q64_nodes_per_s": 0.25,
    "bnb_llrk_q64_nodes_per_s": 0.25,
    "bnb_llrk_20x20_q64_nodes_per_s": 0.25,
    "uts_nodes_per_s": 0.25,
    # UTSWork.process(q) at the protocols' quanta: interpreter and ufunc
    # dispatch per call, not arithmetic — same band as the bulk rate
    "uts_q16_nodes_per_s": 0.25,
    "uts_q64_nodes_per_s": 0.25,
    # UTSWork.process_quanta(16, 32): the fused replay loop — a per-quantum
    # root scan or a lost local stack shows as a third of this rate
    "uts_replay_q16_nodes_per_s": 0.25,
    # live-backend rates (BENCH_runtime.json baseline): real sockets,
    # real scheduler — wall-clock noise dwarfs any code regression short
    # of a protocol stall, so the bands are deliberately generous
    "live_uts_units_per_s_n2": 0.5,
    "live_steals_per_s_n2": 0.5,
    "sim_uts_units_per_wall_s_n4": 0.4,
    # fleet-scale engine rates (BENCH_scale.json baseline): whole-run
    # wall clocks of 2000-process simulations — long single runs, not
    # best-of-N microbenchmarks, so machine-load noise is large even
    # after calibration; the gate is for collapses (a disabled fast
    # path halves eq/s), not percent-level drift
    "scale_td_synth_eq_per_s": 0.4,
    "scale_td_synth_unfused_events_per_s": 0.4,
    "scale_td_uts_eq_per_s": 0.5,
    # sharded parallel engine (BENCH_shard.json baseline): throughput of
    # the sharded run and its serial twin on the same gate cell. The
    # speedup figure itself is *not* gated — it depends on the recording
    # machine's core count — only the absolute rates, so a window-loop
    # stall or broken barrier shows up as a collapse
    "shard_td_synth_eq_per_s": 0.5,
    "shard_serial_td_synth_eq_per_s": 0.4,
    # fault-layer rates (BENCH_faults.json baseline): whole faulted runs
    # (partition-then-heal, gray peer) — the gate is for a routing stall
    # (a breaker that never closes, a wave that spins until abort), not
    # wall-clock drift, so the bands are generous
    "faults_partition_units_per_wall_s": 0.5,
    "faults_gray_units_per_wall_s": 0.5,
    # service layer (BENCH_service.json baseline): sustained loadgen
    # throughput over warm lanes, and accept-to-terminal p99 (queue wait
    # included, with a rolling restart mid-stream — so the latency band
    # is the widest in the file; the gate is for a stalled queue or a
    # recycle storm, not scheduler jitter)
    "service_jobs_per_s": 0.5,
    "service_p99_latency_s": 1.0,
}
DEFAULT_TOLERANCE = 0.25

#: Metrics where *smaller* is better (latencies): the band is a ceiling
#: — fail above ``baseline * (1 + tolerance)`` — and the calibration
#: correction divides instead of multiplies (a slower gate machine
#: inflates latencies by the same factor it deflates rates).
LOWER_IS_BETTER = {
    "service_p99_latency_s",
}

#: A fresh rate this far *above* baseline prints a re-record hint.
IMPROVEMENT_HINT = 0.25


def load_metrics(path: pathlib.Path) -> tuple[dict[str, float], float]:
    """``(metric name -> throughput, calibration rate)`` from BENCH json.

    The calibration rate is 0.0 for recordings that predate it.
    """
    with open(path) as fh:
        doc = json.load(fh)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise SystemExit(f"{path}: no 'metrics' table — not a kernels "
                         "recording?")
    out = {}
    for name, row in metrics.items():
        if not isinstance(row, dict) or "after" not in row:
            raise SystemExit(f"{path}: metric {name!r} has no 'after' value")
        out[name] = float(row["after"])
    return out, float(doc.get("calibration_ops_per_s", 0.0))


def check(fresh: dict[str, float], baseline: dict[str, float],
          tol_scale: float,
          calib_scale: float = 1.0) -> tuple[list[str], list[str]]:
    """Returns (failures, lines) — lines is the full report table.

    ``calib_scale`` multiplies every fresh rate before banding
    (baseline calibration / fresh calibration — i.e. how much faster
    the baseline machine is than the machine running the gate).
    """
    failures = []
    lines = [f"{'metric':34s} {'baseline':>12s} {'fresh':>12s} "
             f"{'ratio':>7s} {'band':>7s}  status",
             "-" * 84]
    for name in sorted(baseline):
        base = baseline[name]
        tol = TOLERANCES.get(name, DEFAULT_TOLERANCE) * tol_scale
        lower_better = name in LOWER_IS_BETTER
        if name not in fresh:
            failures.append(f"{name}: missing from the fresh recording")
            lines.append(f"{name:34s} {base:>12,.0f} {'-':>12s} "
                         f"{'-':>7s} {tol:>6.0%}  MISSING")
            continue
        if lower_better:
            now = fresh[name] / calib_scale if calib_scale else fresh[name]
        else:
            now = fresh[name] * calib_scale
        ratio = now / base if base else float("inf")
        if lower_better:
            ceiling = 1.0 + tol
            if ratio > ceiling:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {now:,.4f} vs baseline {base:,.4f} "
                    f"({ratio:.3f}x > {ceiling:.3f}x ceiling)")
            elif ratio < 1.0 - IMPROVEMENT_HINT:
                status = ("ok (improved — consider re-recording the "
                          "baseline)")
            else:
                status = "ok"
        else:
            floor = 1.0 - tol
            if ratio < floor:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {now:,.0f} vs baseline {base:,.0f} "
                    f"({ratio:.3f}x < {floor:.3f}x floor)")
            elif ratio > 1.0 + IMPROVEMENT_HINT:
                status = ("ok (improved — consider re-recording the "
                          "baseline)")
            else:
                status = "ok"
        prec = 4 if (lower_better or base < 100) else 0
        lines.append(f"{name:34s} {base:>12,.{prec}f} {now:>12,.{prec}f} "
                     f"{ratio:>6.3f}x {tol:>6.0%}  {status}")
    for name in sorted(set(fresh) - set(baseline)):
        lines.append(f"{name:34s} {'-':>12s} {fresh[name]:>12,.0f} "
                     f"{'-':>7s} {'-':>7s}  new (no baseline)")
    return failures, lines


def main(argv=None) -> int:
    here = pathlib.Path(__file__).parent
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[1].strip())
    parser.add_argument("--fresh", required=True,
                        help="freshly recorded BENCH json to validate")
    parser.add_argument("--baseline",
                        default=str(here / "BENCH_kernels.json"),
                        help="committed baseline (default: "
                             "benchmarks/BENCH_kernels.json)")
    parser.add_argument("--tol-scale", type=float,
                        default=float(os.environ.get("BENCH_TOL_SCALE",
                                                     "1.0")),
                        help="multiply every tolerance band (noisy CI "
                             "escape hatch; also $BENCH_TOL_SCALE)")
    args = parser.parse_args(argv)

    fresh, fresh_calib = load_metrics(pathlib.Path(args.fresh))
    baseline, base_calib = load_metrics(pathlib.Path(args.baseline))
    calib_scale = 1.0
    if fresh_calib > 0.0 and base_calib > 0.0:
        calib_scale = base_calib / fresh_calib
        print(f"machine calibration: baseline {base_calib:,.0f} ops/s, "
              f"fresh {fresh_calib:,.0f} ops/s -> fresh rates x "
              f"{calib_scale:.3f}")
    failures, lines = check(fresh, baseline, args.tol_scale, calib_scale)
    print("\n".join(lines))
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed:",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(baseline)} metric(s) within tolerance "
          f"(scale {args.tol_scale:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
