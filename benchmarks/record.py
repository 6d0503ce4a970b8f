"""Record kernel and harness performance against their baselines.

Usage::

    PYTHONPATH=src python benchmarks/record.py            # kernel hot paths
    PYTHONPATH=src python benchmarks/record.py harness    # parallel runner

The default (``kernels``) mode re-measures the hot paths touched by the
vectorised-kernel overhaul and writes ``BENCH_kernels.json`` next to this
file with before/after/speedup per metric. The BASELINE numbers were
captured at the seed commit with the same methodology (same instances,
budgets and best-of-N repeats as below), so the speedup column is
apples-to-apples on the recording machine.

The ``harness`` mode times one compare-style experiment grid three ways —
serial loop, multiprocess pool (``--jobs``, default all cores), and a warm
cache rerun — and writes ``BENCH_harness.json``. The serial measurement is
the baseline the speedups are computed against.

The ``faults`` mode (``python benchmarks/record.py faults``) measures
what the fault-injection layer costs: no-plan vs null-plan runs must be
bit-identical (asserted), and a loss curve quantifies the reliable
channel's overhead. Writes ``BENCH_faults.json``.

The ``live`` mode times the :mod:`repro.runtime` multi-process backend —
units/s and steal throughput of a small UTS tree at 2 workers (gated) and
at larger fleets (context), next to the simulator's wall-clock rate on the
same workload — and writes ``BENCH_runtime.json``. The regression gate
compares a fresh ``live`` recording against the committed one with
generous bands
(``check_regression.py --baseline benchmarks/BENCH_runtime.json``):
real sockets and scheduler jitter move these numbers far more than the
in-process kernels.

The ``scale`` mode (``python benchmarks/record.py scale``) records the
macro-event engine: fused vs unfused events-equivalent throughput on a
fixed CI-sized fleet workload (gated), plus — without ``--quick`` — the
headline 10,000-node {TD, BTD, RWS} x {UTS, synthetic} sweep as context.
Writes ``BENCH_scale.json``; the CI ``scale-smoke`` job re-records with
``--quick`` and gates it via ``check_regression.py --baseline
benchmarks/BENCH_scale.json``.

The ``shard`` mode (``python benchmarks/record.py shard``) records the
sharded parallel engine (:mod:`repro.sim.shard`) against its serial
twin on the same CI-sized gate workload: per-shard compute seconds,
the wall/CPU split of both runs, and the wall-clock speedup-vs-serial.
The speedup itself is context, not gated — it tracks the recording
machine's core count (a 1-core host *must* show < 1x: the shards
time-slice one core and pay the barrier tax on top) — while the two
throughput rates are gated so a protocol stall or a broken window
loop cannot land silently. Writes ``BENCH_shard.json``; the CI
``shard-smoke`` job re-records with ``--quick`` and gates via
``check_regression.py --baseline benchmarks/BENCH_shard.json``.

The ``serve`` mode (``python benchmarks/record.py serve``) measures the
long-lived service layer (:mod:`repro.serve`) the way a caller sees it:
an in-process daemon with two warm lanes fields 100 jobs from 4
concurrent submitters (every 10th poisoned, a rolling restart fired
mid-stream), and the recording asserts every accepted job is accounted
— done or dead-lettered — before writing sustained ``jobs_per_s`` and
accept-to-terminal p50/p99 into ``BENCH_service.json``. The gate holds
``service_jobs_per_s`` to a floor and ``service_p99_latency_s`` to a
ceiling (the one lower-is-better metric in the gate). The CI
``serve-smoke`` job re-records with ``--quick`` and gates via
``check_regression.py --baseline benchmarks/BENCH_service.json``.

``--quick`` shrinks the kernel budgets (CI-sized: the regression gate in
``check_regression.py`` runs ``kernels --quick`` on every PR); ``--out``
redirects the JSON so a fresh recording can be compared against the
committed baseline instead of overwriting it.
"""

import heapq
import json
import os
import pathlib
import platform
import tempfile
import time

from repro.bnb.engine import BnBEngine
from repro.bnb.state import BoundState
from repro.bnb.taillard import scaled_instance
from repro.bnb.work import BnBWork
from repro.sim.events import EventQueue
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams
from repro.uts.work import UTSWork

#: Throughput of the commit before the per-subset max-plus bound table
#: (ops or nodes per second), measured with the functions below on the
#: recording box (2 cores), written as ``before`` in the committed
#: ``BENCH_kernels.json``. Each row is the median over 15 recordings,
#: interleaved with the table's own, of rate x (median calibration / that
#: recording's calibration) — the box's speed wandered too far for one
#: recording to stand for it. Earlier baselines (the seed commit, the
#: pre-kernel and pre-cursor commits) are in this file's history.
BASELINE = {
    "event_queue_ops_per_s": 664_100,
    "bnb_lb1_nodes_per_s": 298_126,
    "bnb_llrk_nodes_per_s": 173_805,
    "bnb_llrk_full_nodes_per_s": 173_905,
    "uts_nodes_per_s": 3_847_781,
    # per-quantum rates: UTSWork.process(q) at the protocols' quanta
    "uts_q16_nodes_per_s": 710_481,
    "uts_q64_nodes_per_s": 2_517_688,
    # process_quanta(16, 32): the fused replay loop
    "uts_replay_q16_nodes_per_s": 826_362,
    # explore(work, shared, q) loops on ta21 10x10
    "bnb_lb1_q16_nodes_per_s": 303_080,
    "bnb_lb1_q64_nodes_per_s": 301_667,
    "bnb_llrk_q64_nodes_per_s": 165_579,
    # the paper's size and bound: Ta21 20x20, llrk, explore(q=64)
    "bnb_llrk_20x20_q64_nodes_per_s": 190_408,
}


def best_of(fn, repeats=5, warmup=0):
    for _ in range(warmup):
        fn()
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return out, best


def robust_seconds(fns, groups=9, per_group=5, warmup=2):
    """Median of per-group minima for each fn — low-variance wall clock.

    A plain min-of-N keeps drifting lower the longer it runs (it is a
    max-statistic of the CPU's frequency states), so two recordings of
    the same code routinely differ by 4-5% on a busy machine. The median
    of several group minima converges on the *typical* fast state
    instead, which is what a tight regression band needs. Multiple fns
    are interleaved block by block so they sample the same machine
    state — their *ratio* is then far more stable than either rate.
    (Blocks, not alternating single reps: alternating workloads thrash
    each other's caches and *add* noise.)
    """
    for fn in fns:
        for _ in range(warmup):
            fn()
    minima = [[] for _ in fns]
    for _ in range(groups):
        for slot, fn in enumerate(fns):
            best = float("inf")
            for _ in range(per_group):
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                best = min(best, dt)
            minima[slot].append(best)
    out = []
    for slot_minima in minima:
        slot_minima.sort()
        out.append(slot_minima[len(slot_minima) // 2])
    return out


def gated_rates():
    """(event-queue rate, machine-calibration rate), interleaved.

    The calibration loop is a raw-heapq twin of the event-queue bench
    that lives entirely in this file, so no library change can touch
    it: its throughput tracks only machine speed. ``check_regression``
    normalises the gated rates by the baseline/fresh calibration ratio,
    which is what lets the event-queue metric carry a 3% band — the
    absolute rates move with CI hardware and machine load, but the
    event-queue/calibration ratio only moves when EventQueue's code
    gets slower.
    """
    def eq_run():
        q = EventQueue()
        noop = lambda: None
        for i in range(20_000):
            q.push(float(i % 97), i, noop)
        while q.pop() is not None:
            pass

    def calib_run():
        h = []
        seq = 0
        noop = lambda: None
        for i in range(20_000):
            heapq.heappush(h, (float(i % 97), seq, noop))
            seq += 1
        while h:
            h[0][2]()
            heapq.heappop(h)

    eq_s, calib_s = robust_seconds((eq_run, calib_run))
    return 40_000 / eq_s, 40_000 / calib_s  # push+pop pairs -> ops/sec


def bnb_rate(bound, budget=30_000, repeats=5, quantum=None, size=10):
    """Nodes/s through ``BnBEngine.explore`` on ta21 ``size``x``size``: one
    bulk call of ``budget`` nodes, or — given ``quantum`` — a loop of
    ``explore(work, shared, quantum)`` calls, the regime the protocols run
    in, where the per-call bookkeeping the bulk rate hides is on the bill.
    ``size=20`` is the paper's Ta21 itself (the first ``budget`` nodes of
    its tree)."""
    inst = scaled_instance(1, n_jobs=size, n_machines=size)
    eng = BnBEngine(inst, bound=bound)

    def run():
        work, shared, nodes = BnBWork.full_tree(size), BoundState(), 0
        while nodes < budget and not work.is_empty():
            nodes += eng.explore(work, shared, quantum or budget).nodes
        return nodes

    nodes, dt = best_of(run, repeats=repeats, warmup=1)
    if quantum:
        print(f"  bnb {bound} {size}x{size} q={quantum}: "
              f"{eng.rebuilds} rebuilds, {eng.resumes} resumes")
    return nodes / dt


#: The instance both UTS rates traverse (~116k nodes).
UTS_PARAMS = UTSParams(b0=2000, q=0.49, m=2, root_seed=5)


def uts_rate(max_nodes=5_000_000, repeats=3):
    def run():
        return count_tree(UTS_PARAMS, max_nodes=max_nodes).nodes

    nodes, dt = best_of(run, repeats=repeats, warmup=1)
    return nodes / dt


def uts_quantum_rate(quantum, max_nodes=5_000_000, repeats=3):
    """Nodes/s through ``UTSWork.process(quantum)``, one call per quantum:
    the simulated protocols' unfused quanta (16 by default), where the
    per-call cost ``count_tree``'s 32k batches hide is the whole bill.
    (A live or served slice is one batch of about 1 ms of nodes, up to
    the run's ``quantum``, which ``uts_nodes_per_s`` covers better.)"""
    def run():
        work, nodes = UTSWork.root(UTS_PARAMS), 0
        while nodes < max_nodes and not work.is_empty():
            nodes += work.process(quantum)
        return nodes

    nodes, dt = best_of(run, repeats=repeats, warmup=1)
    return nodes / dt


def uts_replay_rate(quantum, limit=32, max_nodes=5_000_000, repeats=3):
    """Nodes/s through ``UTSWork.process_quanta(quantum, limit)``: the
    fused replay of the simulated path, ``limit`` quanta per call with the
    stack held in locals between them."""
    def run():
        work, nodes = UTSWork.root(UTS_PARAMS), 0
        while nodes < max_nodes and not work.is_empty():
            nodes += sum(work.process_quanta(quantum, limit))
        return nodes

    nodes, dt = best_of(run, repeats=repeats, warmup=1)
    return nodes / dt


def harness_grid():
    """A compare-style grid: 2 apps x 2 protocols x 2 sizes x 2 trials."""
    from repro.experiments.runner import RunConfig, cell_configs
    from repro.experiments.specs import BnBSpec, UTSSpec

    specs = ((UTSSpec("bin_small"), ("BTD", "RWS")),
             (BnBSpec(1, n_jobs=8, n_machines=8), ("BTD", "MW")))
    cells = []
    for spec, protocols in specs:
        for proto in protocols:
            for n in (16, 32):
                cfg = RunConfig(protocol=proto, n=n, quantum=64, seed=42)
                cells.extend((c, spec) for c in cell_configs(cfg, 2))
    return cells


def harness(jobs=0):
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import resolve_jobs, run_cells

    jobs = resolve_jobs(jobs)   # 0 -> all cores
    cells = harness_grid()

    t0 = time.perf_counter()
    serial = run_cells(cells, jobs=1, use_cache=False)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(pathlib.Path(tmp))
        t0 = time.perf_counter()
        parallel = run_cells(cells, jobs=jobs, cache=cache)
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cached = run_cells(cells, jobs=jobs, cache=cache)
        cached_s = time.perf_counter() - t0
        assert cache.hits >= len(cells), "warm rerun must be pure hits"

    assert serial == parallel == cached, "paths must be bit-identical"
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "jobs": jobs,
        "cells": len(cells),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cached_s": round(cached_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cached_speedup": round(serial_s / cached_s, 2),
    }
    out = pathlib.Path(__file__).with_name("BENCH_harness.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{len(cells)} cells on {report['cores']} core(s), jobs={jobs}")
    print(f"serial   {serial_s:8.3f}s")
    print(f"parallel {parallel_s:8.3f}s ({report['parallel_speedup']:.2f}x)")
    print(f"cached   {cached_s:8.3f}s ({report['cached_speedup']:.2f}x)")
    print(f"wrote {out}")


def faults(out=None):
    """Overhead of the fault layer: null-plan bit-identity, loss curve,
    partition-then-heal and gray-failure cells (the last two gated)."""
    from repro.experiments.runner import RunConfig, run_once
    from repro.experiments.specs import UTSSpec
    from repro.sim.faults import FaultPlan

    spec = UTSSpec("bin_tiny")
    _eq_rate, calib_rate = gated_rates()

    def cell(plan, **cfg_kwargs):
        def run():
            cfg = RunConfig(protocol="BTD", n=16, quantum=64, seed=42,
                            faults=plan, **cfg_kwargs)
            return run_once(cfg, spec.build())
        return best_of(run, repeats=3)

    clean, clean_s = cell(None)
    null, null_s = cell(FaultPlan())
    assert (clean.makespan == null.makespan
            and clean.total_msgs == null.total_msgs
            and clean.total_units == null.total_units), \
        "a null FaultPlan must not perturb the simulation"

    curve = {}
    for loss in (0.05, 0.1, 0.2):
        res, dt = cell(FaultPlan(loss=loss))
        curve[str(loss)] = {
            "wall_s": round(dt, 4),
            "wall_ratio": round(dt / clean_s, 2),
            "makespan_ratio": round(res.makespan / clean.makespan, 2),
            "lost": res.msgs_lost,
            "retransmits": res.retransmits,
        }

    # partition-then-heal: islands {0..7} | {8..15} cut for 6 virtual ms,
    # tight breaker pacing so routing-around engages inside the window
    pacing = {"ack_timeout": 5e-4, "breaker_threshold": 3}
    part_plan = FaultPlan(partitions=((tuple(range(8, 16)), 1e-3, 7e-3),))
    part, part_s = cell(part_plan, **pacing)
    assert part.total_units == clean.total_units, \
        "a healed partition must not lose work"
    assert part.breaker_opens > 0, \
        "the partition cell must exercise the circuit breaker"
    partition = {
        "wall_s": round(part_s, 4),
        "wall_ratio": round(part_s / clean_s, 2),
        "makespan_ratio": round(part.makespan / clean.makespan, 2),
        "dropped": part.msgs_lost,
        "breaker_opens": part.breaker_opens,
    }

    # gray failure: pid 8 computes 8x slower behind flaky 4x-delay links
    gray_fp = FaultPlan(slowdowns=((8, 0.0, 8e-3, 8.0),),
                        gray_links=((None, 8, 0.0, 8e-3, 4.0, 0.5),
                                    (8, None, 0.0, 8e-3, 4.0, 0.5)))
    gray, gray_s = cell(gray_fp, **pacing)
    assert gray.total_units == clean.total_units, \
        "a gray peer is alive: no work may be lost"
    gray_row = {
        "wall_s": round(gray_s, 4),
        "wall_ratio": round(gray_s / clean_s, 2),
        "makespan_ratio": round(gray.makespan / clean.makespan, 2),
        "dropped": gray.msgs_lost,
        "breaker_opens": gray.breaker_opens,
        "retransmits": gray.retransmits,
    }

    after = {
        "faults_partition_units_per_wall_s": round(part.total_units
                                                   / part_s),
        "faults_gray_units_per_wall_s": round(gray.total_units / gray_s),
    }
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_s": round(calib_rate),
        "clean_wall_s": round(clean_s, 4),
        "null_plan_wall_s": round(null_s, 4),
        "null_plan_wall_ratio": round(null_s / clean_s, 2),
        "null_plan_bit_identical": True,
        "loss_curve": curve,
        "partition": partition,
        "gray": gray_row,
        "metrics": {name: {"after": value} for name, value in after.items()},
    }
    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_faults.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"clean      {clean_s:8.4f}s")
    print(f"null plan  {null_s:8.4f}s ({report['null_plan_wall_ratio']:.2f}x,"
          " bit-identical)")
    for loss, row in curve.items():
        print(f"loss={loss:4s} {row['wall_s']:8.4f}s "
              f"({row['wall_ratio']:.2f}x wall, "
              f"{row['makespan_ratio']:.2f}x makespan, "
              f"{row['retransmits']} rexmit)")
    print(f"partition  {part_s:8.4f}s ({partition['makespan_ratio']:.2f}x "
          f"makespan, {partition['dropped']} dropped, "
          f"{partition['breaker_opens']} breaker trips)")
    print(f"gray peer  {gray_s:8.4f}s ({gray_row['makespan_ratio']:.2f}x "
          f"makespan, {gray_row['breaker_opens']} breaker trips)")
    print(f"wrote {out}")


def live_backend(quick=False, out=None):
    """Live multi-process backend vs the simulator on the same UTS tree.

    One family of cells, BTD on ``bin_tiny`` at n workers: units/s and
    steal requests/s over the makespan, best of the repeats.  The n=2
    cell gates (two worker processes on the two cores the baseline is
    recorded on).  Larger fleets (n=4, and 16 and 64 without ``--quick``)
    oversubscribe those cores, so their rows read the scheduler as much
    as the runtime: they are written under ``context`` and gate nothing.

    A ``startup`` block says what a caller waits for before any of that:
    the worker's import graph beside ``import numpy`` (fresh interpreters,
    alternating, medians) and spawn -> last ``hello`` of the n=2 fleet
    (the run's own ``live.handshake_s``).  Context as well: it reads the
    box's disk cache and bytecode settings as much as the code.
    """
    import statistics
    import subprocess
    import sys
    from repro.experiments.runner import RunConfig, run_instrumented
    from repro.experiments.specs import UTSSpec
    from repro.runtime.supervisor import LiveConfig, run_live

    preset = "bin_tiny"
    repeats = 2 if quick else 3
    spec = UTSSpec(preset)
    _eq_rate, calib_rate = gated_rates()

    def live_cell(n):
        best_units_s = 0.0
        best_steals_s = 0.0
        handshakes = []
        for rep in range(repeats):
            live = run_live(LiveConfig(
                protocol="BTD", n=n, app={"kind": "uts", "preset": preset},
                seed=42 + rep, timeout_s=240.0))
            res = live.result
            handshakes.append(live.metrics.gauge("live.handshake_s").value)
            assert res.total_units == BASELINE_LIVE_NODES, res.total_units
            best_units_s = max(best_units_s, res.total_units / res.makespan)
            best_steals_s = max(best_steals_s,
                                res.total_steals / res.makespan)
        return (round(best_units_s), round(best_steals_s, 1),
                statistics.median(handshakes))

    units_s, steals_s, hello_s = live_cell(2)
    after = {"live_uts_units_per_s_n2": units_s,
             "live_steals_per_s_n2": steals_s}
    context = {"live_uts_units_per_s": {}, "live_steals_per_s": {}}
    for n in (4,) if quick else (4, 16, 64):
        units_s, steals_s, _hello_s = live_cell(n)
        context["live_uts_units_per_s"][n] = units_s
        context["live_steals_per_s"][n] = steals_s

    def import_ms(statement):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], check=True)
        return (time.perf_counter() - t0) * 1e3

    imports = [(import_ms("import repro.runtime.worker"),
                import_ms("import numpy")) for _ in range(5 if quick else 9)]
    startup = {
        "note": "context rows, gate nothing: fresh-interpreter imports "
                "(alternating, medians) and spawn -> last hello at n=2",
        "worker_import_ms": round(statistics.median(w for w, _ in imports), 1),
        "numpy_import_ms": round(statistics.median(u for _, u in imports), 1),
        "spawn_to_hello_ms": round(hello_s * 1e3, 1),
    }

    def sim_run():
        cfg = RunConfig(protocol="BTD", n=4, quantum=64, seed=42)
        return run_instrumented(cfg, spec.build())[0]

    sim_res, sim_wall = best_of(sim_run, repeats=repeats, warmup=1)
    after["sim_uts_units_per_wall_s_n4"] = round(sim_res.total_units
                                                 / sim_wall)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "quick": quick,
        "preset": preset,
        "calibration_ops_per_s": round(calib_rate),
        "context": {
            "note": "fleets of more worker processes than the recording "
                    "box has cores, keyed by n: context rows, gate nothing",
            **context,
            # the virtual-time makespan the simulator predicts here
            "sim_virtual_makespan_s": sim_res.makespan,
        },
        "startup": startup,
        "metrics": {name: {"after": value} for name, value in after.items()},
    }
    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_runtime.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, value in after.items():
        print(f"{name:32s} {value:>12,}")
    for name, row in context.items():
        for n, value in row.items():
            print(f"{name + f'_n{n}':32s} {value:>12,}  (context)")
    for name, value in startup.items():
        if name != "note":
            print(f"{name:32s} {value:>12,}  (context)")
    print(f"wrote {out}")


#: bin_tiny's sequential node count — every live bench run must still
#: explore exactly this many nodes or the recording is invalid.
BASELINE_LIVE_NODES = 21_483


def scale_bench(quick=False, out=None):
    """Macro-event engine at fleet size (``BENCH_scale.json``).

    The *gated* metrics are recorded at a fixed CI-sized workload
    (n=2000) in both modes, so a ``--quick`` re-recording is
    apples-to-apples with the committed baseline; the committed full
    recording additionally embeds the headline 10,000-node sweep
    ({TD, BTD, RWS} x {UTS, synthetic}) with its unfused twin and
    engine-speedup figure as context. Work conservation is asserted on
    every cell by :func:`repro.experiments.scale.scale_run`; the fused
    ratio on the gate cell is asserted here (a broken fusion gate would
    otherwise pass the gate as a mere slowdown).
    """
    from repro.experiments.scale import scale_run, scale_sweep, render_sweep

    _eq_rate, calib_rate = gated_rates()
    gate_kw = dict(n=2000, quantum=16, seed=42, latency=1e-2,
                   units_per_node=5_000, unit_cost=1e-6, preset="bin_small")

    fused = scale_run("TD", "synthetic", **gate_kw)
    unfused = scale_run("TD", "synthetic", fuse=False, **gate_kw)
    uts = scale_run("TD", "uts", **gate_kw)
    assert fused.fused_ratio > 0.5, (
        f"fusion barely engaged on the gate workload "
        f"(ratio {fused.fused_ratio:.3f}) — fast-path gate broken?")
    assert uts.macro_events > 0, "UTS gate cell never fused"

    after = {
        "scale_td_synth_eq_per_s": round(fused.eq_per_s),
        "scale_td_synth_unfused_events_per_s": round(unfused.events_per_s),
        "scale_td_uts_eq_per_s": round(uts.eq_per_s),
    }
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "quick": quick,
        "calibration_ops_per_s": round(calib_rate),
        # context, not gated
        "gate_workload": dict(gate_kw),
        "gate_fused_ratio": round(fused.fused_ratio, 4),
        "gate_fused_speedup": round(fused.eq_per_s / unfused.events_per_s, 2),
        "gate_makespan_match": fused.makespan == unfused.makespan,
        "metrics": {name: {"after": value} for name, value in after.items()},
    }
    for name, value in after.items():
        print(f"{name:38s} {value:>12,}")
    print(f"gate fused ratio {report['gate_fused_ratio']:.3f}, "
          f"speedup {report['gate_fused_speedup']:.2f}x")

    if not quick:
        doc = scale_sweep(10_000, progress=lambda m: print(f"  {m}",
                                                           flush=True))
        report["sweep_10k"] = doc
        print(render_sweep(doc))

    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_scale.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


def shard_bench(quick=False, out=None, jobs=0):
    """Sharded parallel engine vs its serial twin (``BENCH_shard.json``).

    Both runs execute the fixed CI-sized gate workload (the same 2000-node
    cell ``scale_bench`` gates), so a ``--quick`` re-recording compares
    apples-to-apples with the committed baseline. Without ``--quick`` a
    10,000-node BTD/synthetic cell is added as context, at the same shard
    count — the cell the sharded engine's keep-or-delete threshold is
    stated on.
    """
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.scale import scale_run

    _eq_rate, calib_rate = gated_rates()
    cores = os.cpu_count() or 1
    shards = resolve_jobs(jobs) if jobs else max(2, min(4, cores))
    gate_kw = dict(n=2000, quantum=16, seed=42, latency=1e-2,
                   units_per_node=5_000, unit_cost=1e-6, preset="bin_small")

    serial = scale_run("TD", "synthetic", **gate_kw)
    sharded = scale_run("TD", "synthetic", shards=shards, **gate_kw)
    assert sharded.total_units == serial.total_units, "conservation broken"

    after = {
        "shard_serial_td_synth_eq_per_s": round(serial.eq_per_s),
        "shard_td_synth_eq_per_s": round(sharded.eq_per_s),
    }
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": cores,
        "shards": shards,
        "quick": quick,
        "calibration_ops_per_s": round(calib_rate),
        # context, not gated
        "gate_workload": dict(gate_kw),
        "gate_serial": serial.to_json(),
        "gate_sharded": sharded.to_json(),
        "gate_speedup_vs_serial": round(serial.wall_s / sharded.wall_s, 2),
        "gate_makespan_match": sharded.makespan == serial.makespan,
        "metrics": {name: {"after": value} for name, value in after.items()},
    }
    for name, value in after.items():
        print(f"{name:38s} {value:>12,}")
    print(f"{shards} shards on {cores} core(s): "
          f"wall {sharded.wall_s:.1f}s vs serial {serial.wall_s:.1f}s "
          f"({report['gate_speedup_vs_serial']:.2f}x), "
          f"shard compute {[round(w, 1) for w in sharded.shard_walls]}s, "
          f"makespan match {report['gate_makespan_match']}")

    if not quick:
        big_kw = dict(quantum=16, seed=42, latency=1e-2,
                      units_per_node=50_000, unit_cost=1e-6,
                      preset="bin_small")
        b_serial = scale_run("BTD", "synthetic", 10_000, **big_kw)
        # the gate's shard count: more shards than cores would time-slice
        b_shard = scale_run("BTD", "synthetic", 10_000, shards=shards,
                            **big_kw)
        report["btd_10k_serial"] = b_serial.to_json()
        report["btd_10k_sharded"] = b_shard.to_json()
        report["btd_10k_speedup_vs_serial"] = round(
            b_serial.wall_s / b_shard.wall_s, 2)
        # zero jitter, equal speeds: simultaneous events abound, and the
        # heap key alone (repro.sim.events) makes both runs fire them in
        # one order — the claim this recording stands on
        report["btd_10k_makespan_match"] = (
            b_shard.makespan == b_serial.makespan)
        print(f"10k BTD: wall {b_shard.wall_s:.1f}s vs serial "
              f"{b_serial.wall_s:.1f}s "
              f"({report['btd_10k_speedup_vs_serial']:.2f}x on "
              f"{cores} core(s))")
        assert report["btd_10k_makespan_match"], (
            f"10k BTD sharded makespan {b_shard.makespan!r} != serial "
            f"{b_serial.makespan!r}")

    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_shard.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


def serve_bench(quick=False, out=None):
    """Service layer under sustained load (``BENCH_service.json``).

    The workload is identical in both modes — 100 jobs of the default
    mix from 4 submitters, poison every 10th, rolling restart at
    submission 40 — because the whole run costs seconds, so there is
    nothing for ``--quick`` to trim and a CI re-recording stays
    apples-to-apples with the committed baseline. The accounting
    invariant is asserted at recording time: a service that loses a job
    cannot record a green baseline.
    """
    import shutil

    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.loadgen import run_loadgen

    _eq_rate, calib_rate = gated_rates()
    daemon = ServeDaemon(ServeConfig(lanes=2, n=2, queue_limit=16,
                                     job_timeout_s=60.0))
    daemon.start()
    try:
        doc = run_loadgen(daemon.address, jobs=100, submitters=4,
                          poison_every=10, restart_at=40,
                          job_timeout_s=60.0, wait_timeout_s=300.0)
    finally:
        daemon.stop()
        shutil.rmtree(daemon.run_dir, ignore_errors=True)

    assert doc["all_accounted"], f"lost jobs: {doc}"
    assert not doc["errors"], doc["errors"]
    assert doc["dead_lettered"] == 10, \
        f"poison every 10th of 100 must dead-letter 10: {doc}"
    assert doc["restart"] and doc["restart"].get("ok"), \
        f"mid-stream rolling restart failed: {doc['restart']}"

    after = {
        "service_jobs_per_s": doc["jobs_per_s"],
        "service_p99_latency_s": doc["p99_s"],
    }
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "quick": quick,
        "calibration_ops_per_s": round(calib_rate),
        # context, not gated: the full loadgen document (latency is
        # accept -> terminal, queue wait included)
        "loadgen": doc,
        "metrics": {name: {"after": value} for name, value in after.items()},
    }
    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_service.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{doc['completed']}/{doc['jobs']} done "
          f"(+{doc['dead_lettered']} dead-lettered, "
          f"{doc['busy_retries']} busy retries) in {doc['wall_s']}s")
    print(f"service_jobs_per_s      {after['service_jobs_per_s']:>10}")
    print(f"service_p99_latency_s   {after['service_p99_latency_s']:>10}"
          f"   (p50 {doc['p50_s']}s, mean {doc['mean_s']}s)")
    print(f"wrote {out}")


def kernels(quick=False, out=None):
    eq_rate, calib_rate = gated_rates()
    bnb_budget = {"budget": 15_000, "repeats": 3} if quick else {}
    uts_budget = {"max_nodes": 2_000_000, "repeats": 2} if quick else {}
    after = {"event_queue_ops_per_s": round(eq_rate)}
    for bound in ("lb1", "llrk", "llrk-full"):
        after[f"bnb_{bound.replace('-', '_')}_nodes_per_s"] = round(
            bnb_rate(bound, **bnb_budget))
    for bound, quantum in (("lb1", 16), ("lb1", 64), ("llrk", 64)):
        after[f"bnb_{bound}_q{quantum}_nodes_per_s"] = round(
            bnb_rate(bound, quantum=quantum, **bnb_budget))
    after["bnb_llrk_20x20_q64_nodes_per_s"] = round(
        bnb_rate("llrk", quantum=64, size=20, **bnb_budget))
    after["uts_nodes_per_s"] = round(uts_rate(**uts_budget))
    for quantum in (16, 64):
        after[f"uts_q{quantum}_nodes_per_s"] = round(
            uts_quantum_rate(quantum, **uts_budget))
    after["uts_replay_q16_nodes_per_s"] = round(
        uts_replay_rate(16, 32, **uts_budget))
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "quick": quick,
        "calibration_ops_per_s": round(calib_rate),
        "metrics": {
            name: {
                "before": BASELINE[name],
                "after": after[name],
                "speedup": round(after[name] / BASELINE[name], 2),
            }
            for name in BASELINE
        },
    }
    out = (pathlib.Path(out) if out
           else pathlib.Path(__file__).with_name("BENCH_kernels.json"))
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, row in report["metrics"].items():
        print(f"{name:32s} {row['before']:>12,} -> {row['after']:>12,} "
              f"({row['speedup']:.2f}x)")
    print(f"wrote {out}")


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", nargs="?", default="kernels",
                        choices=("kernels", "harness", "faults", "live",
                                 "scale", "shard", "serve"))
    parser.add_argument("--jobs", type=int, default=0,
                        help="pool size for harness mode / shard count for "
                             "shard mode (0 = auto)")
    parser.add_argument("--quick", action="store_true",
                        help="kernels/live mode: CI-sized budgets")
    parser.add_argument("--out", default=None,
                        help="kernels/live mode: write the JSON here instead "
                             "of overwriting the committed baseline")
    args = parser.parse_args(argv)
    if args.mode == "harness":
        harness(args.jobs)
    elif args.mode == "faults":
        faults(out=args.out)
    elif args.mode == "live":
        live_backend(quick=args.quick, out=args.out)
    elif args.mode == "scale":
        scale_bench(quick=args.quick, out=args.out)
    elif args.mode == "shard":
        shard_bench(quick=args.quick, out=args.out, jobs=args.jobs)
    elif args.mode == "serve":
        serve_bench(quick=args.quick, out=args.out)
    else:
        kernels(quick=args.quick, out=args.out)


if __name__ == "__main__":
    main()
