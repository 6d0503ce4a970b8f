#!/usr/bin/env python3
"""End-to-end benchmark of the three paths: simulated cell, live fleet,
served stream.

One benchmark run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload sim_msg_btd --seed 42 \\
        --seconds 12 --trace 0

repeats the workload until ``--seconds`` are spent, checks its oracle and
prints every end-to-end metric (``--trace 1``: every per-layer metric, from
a span-traced run that never feeds the end-to-end numbers), by name with
unit, then the same as one JSON object on the last line.

Several runs of every workload, interleaved, with medians and quartiles::

    python3 benchmarks/e2e/run.py --runs 5 --out benchmarks/e2e/out/e2e.json
    python3 benchmarks/e2e/run.py --smoke          # toy sizes, < 60 s

The seed generates the inputs (protocol seeds, job order); the program under
test only ever sees those.  42 is the default, 1337 the held-out seed: state
a claim on 42, confirm it on 1337.  README.md has the metric tables.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import e2e_trace  # noqa: E402
import metrics  # noqa: E402

MIN_REPS = 2        # repetitions 0 and 1 share a seed: the determinism check


def run_unit(args, tmp: str) -> dict:
    """One benchmark run of one workload; returns the result document."""
    t0 = time.perf_counter()
    import workloads        # imports the program under test
    import_s = time.perf_counter() - t0
    wl = workloads.build(args.workload, args.smoke, tmp)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        reps, values = _traced_reps(wl, args, deadline, tmp)
        table = metrics.PER_LAYER
        note = ""
    else:
        reps, values = _timed_reps(wl, args, deadline, import_s)
        table = metrics.END_TO_END
        note = (" machine_speed="
                f"{statistics.median(r['speed'] for r in reps):.3f}"
                " raw_wall_s="
                f"{statistics.median(r['wall_s'] for r in reps):.4f}")
    leftovers = _leftovers(tmp)
    errors = [e for r in reps for e in r["errors"]] + leftovers
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if leftovers and not failed:
        failed = attempted
    if args.trace:
        values["run.fail_frac"] = failed / attempted
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, *_ in table},
            "errors": errors, "note": f"repetitions={len(reps)}{note}"}


def _timed_reps(wl, args, deadline: float, import_s: float) -> tuple:
    """Untraced repetitions until the deadline; the end-to-end metrics."""
    import workloads
    reps: list[dict] = []
    speed = machine_speed(wl.calibrators)
    import_s *= speed
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        rep = wl.rep(args.seed, len(reps))
        after = machine_speed(wl.calibrators)
        rep["speed"] = (speed + after) / 2
        speed = after
        reps.append(rep)
    # read before the oracle runs in this process and moves the mark
    rss_mb = workloads.peak_rss_mb(wl.in_process)
    wl.verify(reps)
    values = metrics.end_to_end(reps, rss_mb)
    if wl.in_process:       # a caller of these paths pays the import too
        values["setup_s"] += import_s
    return reps, values


def _traced_reps(wl, args, deadline: float, tmp: str) -> tuple:
    """One untraced repetition, then span-traced ones until the deadline;
    the per-layer metrics (medians over the traced repetitions)."""
    import workloads
    name = args.workload
    # untraced first: the base of the overhead ratio, and of the two ratios
    # that compare this cell with a variant of itself
    base = wl.rep(args.seed, 0)
    extra = {}
    if name == "sim_msg_btd":
        from repro.obs.registry import MetricsRegistry
        watched = wl.rep(args.seed, 0, metrics=MetricsRegistry())
        extra["obs.registry.attached_overhead_ratio"] = (
            watched["wall_s"] / base["wall_s"])
    if name == "sim_msg_btd_shard2":
        serial = workloads.build("sim_msg_btd", args.smoke, tmp)
        extra["sim.shard.speedup_vs_serial"] = (
            serial.rep(args.seed, 0)["wall_s"] / base["wall_s"])
    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    os.environ[e2e_trace.ENV_DIR] = trace_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(HERE, "tracesite"), SRC))
    e2e_trace.install(dump_at_exit=False)
    reps: list[dict] = []
    docs_by_rep: list = []
    while not reps or time.perf_counter() < deadline:
        os.environ[e2e_trace.ENV_RUN] = f"{name}:{args.seed}:{len(reps)}"
        with e2e_trace.span("repetition"):
            reps.append(wl.rep(args.seed, len(reps)))
        docs_by_rep.append(e2e_trace.collect(trace_dir))
    wl.verify([base] + reps)
    reps[0]["errors"] += base["errors"]
    layers = [metrics.per_layer(name, r, docs)
              for r, docs in zip(reps, docs_by_rep)]
    values = {key: statistics.median(layer[key] for layer in layers)
              for key in layers[0]}
    values.update(extra)
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in reps) / base["wall_s"])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace_{name}.json"), "w") as fh:
        json.dump({"workload": name, "seed": args.seed, "per_layer": values,
                   "processes": docs_by_rep[-1]}, fh)
    return reps, values


def _leftovers(tmp: str) -> list[str]:
    """Oracle: a workload leaves no process and no run directory behind.
    Every process the system spawns carries its run directory, which lies
    under ``tmp``, on its command line."""
    errors = []
    rel = os.path.relpath(tmp).encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if tmp.encode() in cmdline or rel in cmdline:
            errors.append(f"process {entry} outlived its workload: "
                          f"{cmdline[:120]!r}")
    stale = [e for e in os.listdir(tmp) if e != "trace"]
    if stale:
        errors.append(f"run directories left behind: {stale}")
    return errors


def unit_main(args) -> int:
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp      # nothing is written outside the checkout
    try:
        doc = run_unit(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for error in doc.pop("errors"):
        print(f"ORACLE FAILED: {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{doc.pop('note')}")
    for key, m in doc["metrics"].items():
        print(f"{key:42s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


def pairs_per_s(seconds: float = 0.2) -> float:
    """Raw ``heapq`` push+pop pairs per second: a loop that lives in this
    file, so it tracks machine speed and no change to ``src/``."""
    heap: list = []
    n = 0
    collecting = gc.isenabled()
    gc.disable()    # a collection costs by the size of the process's heap
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for k in range(1000):
                heapq.heappush(heap, ((n * 7919 + k) % 10007, k))
            for _ in range(1000):
                heapq.heappop(heap)
            n += 1000
        return n / (time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()


# ``pairs_per_s`` on the sizing box when nothing else runs: alone, and with
# a second loop on the other core (the two cores share execution units:
# side by side each does three quarters).
REFERENCE_PAIRS_PER_S = {1: 2.0e6, 2: 1.5e6}


def machine_speed(calibrators: int) -> float:
    """How fast the box is right now, as a share of the reference speed.

    The box this benchmark was sized on runs the same code 30-40 % slower
    for seconds or minutes at a time (the host has other tenants).  Over
    ten runs of an unchanged simulated cell the raw ``wall_s`` spread
    (q3 - q1) / median = 24-28 % and drifted 15 % between two sets of ten;
    scaled by this number it spread 6-8 % and drifted under 2 %.  So every
    repetition is bracketed by two calibrations and its times are reported
    at the reference speed, ``seconds x speed``; ``benchmarks/record.py``
    gates its event-queue rate the same way.  A workload states how many
    cores it keeps busy, and as many calibration loops run side by side
    (the first in this process, on the core a simulated cell runs on).
    0 keeps the times raw: the served stream's repetitions are long and
    few, and two 0.2 s samples a repetition added more noise than they
    removed (its spread doubled in one trial, was unchanged in another).
    """
    if not calibrators:
        return 1.0
    others = [subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                "--calibrate"],
                               stdout=subprocess.PIPE, text=True)
              for _ in range(calibrators - 1)]
    rates = [pairs_per_s()] + [float(p.communicate()[0]) for p in others]
    return statistics.mean(rates) / REFERENCE_PAIRS_PER_S[calibrators]


# -- several runs, every workload ----------------------------------------------

def context() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "heapq_pairs_per_s": round(machine_speed(1)
                                       * REFERENCE_PAIRS_PER_S[1]),
            "reference_pairs_per_s": REFERENCE_PAIRS_PER_S[1]}


def _spawn_unit(workload: str, seed: int, seconds: float, trace: int,
                smoke: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def _summary(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def aggregate_main(args) -> int:
    names = ([n for n, _why in metrics.WORKLOADS]
             if args.workload == "all" else [args.workload])
    seconds = 0.0 if args.smoke else args.seconds
    doc = {"context": context(), "seed": args.seed, "seconds": seconds,
           "smoke": args.smoke, "workloads": {}}
    results = {n: {"end_to_end": {}, "attempted": 0, "failed": 0,
                   "correct": True} for n in names}
    for run in range(args.runs):        # interleaved: box drift hits all
        for name in names:
            res = _spawn_unit(name, args.seed, seconds, 0, args.smoke)
            slot = results[name]
            slot["attempted"] += res["attempted"]
            slot["failed"] += res["failed"]
            slot["correct"] &= res["correct"]
            for key, m in res["metrics"].items():
                slot["end_to_end"].setdefault(
                    key, {"unit": m["unit"], "samples": []}
                )["samples"].append(m["value"])
            print(f"run {run + 1}/{args.runs} {name}: "
                  f"wall_s={res['metrics']['wall_s']['value']:.3f} "
                  f"correct={res['correct']}", flush=True)
    for name in names:                  # one traced run each, kept apart
        res = _spawn_unit(name, args.seed, seconds, 1, args.smoke)
        slot = results[name]
        slot["correct"] &= res["correct"]
        slot["per_layer"] = res["metrics"]
        slot["fail_frac"] = slot["failed"] / slot["attempted"]
        for m in slot["end_to_end"].values():
            m.update(_summary(m.pop("samples")))
    doc["workloads"] = results
    for name, slot in results.items():
        print(f"\n== {name}  correct={slot['correct']} "
              f"fail_frac={slot['fail_frac']:g}")
        for key, m in slot["end_to_end"].items():
            spread = (f" q1={m['q1']:.4f} q3={m['q3']:.4f}"
                      if "q1" in m else "")
            print(f"  {key:24s} {m['median']:>14.4f} {m['unit']:5s} "
                  f"n={m['n']}{spread}")
        for key, m in slot["per_layer"].items():
            print(f"  {key:42s} {m['value']:>16.6f} {m['unit']}")
    out = args.out or os.path.join(OUT, "e2e.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote {out}")
    return 0 if all(s["correct"] for s in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + [n for n, _why in metrics.WORKLOADS])
    ap.add_argument("--seed", type=int, default=42,
                    help="workload seed (default 42; 1337 is held out)")
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                    help="time one run spends repeating its workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the span-traced run with per-layer metrics")
    ap.add_argument("--runs", type=int, default=None,
                    help="runs per workload, interleaved, then one traced")
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes: every path once, a minute in total")
    ap.add_argument("--out", default=None,
                    help="where the multi-run document goes")
    ap.add_argument("--manifest", action="store_true",
                    help="print BENCHMARK.json and exit")
    ap.add_argument("--calibrate", action="store_true",
                    help="print this box's raw heapq pairs per second")
    args = ap.parse_args(argv)
    if args.calibrate:
        print(pairs_per_s())
        return 0
    if args.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if args.workload != "all" and args.runs is None:
        return unit_main(args)
    if args.runs is None:
        args.runs = 1 if args.smoke else 5
    return aggregate_main(args)


if __name__ == "__main__":
    sys.exit(main())
