"""What the benchmark reports: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is this table in the driver's
format (``run.py --manifest`` prints it; ``test_selfcheck.py`` keeps the two
equal).  A claim is named ``metric @ workload``.  Every per-layer metric
says in ``moves`` which end-to-end metric on which workload it is expected
to move, so a change to one layer states beforehand where it should show —
and every other pairing is a place where it must not.
"""

from __future__ import annotations

from statistics import median

from e2e_trace import fold_layers

# How long one run repeats its workload.  The driver makes 4 + 22 x 7 runs
# inside 3420 s, 21 s each: 12 s of repetitions leave room for the last
# repetition to finish, for set-up, the oracle and a slower box.
RUN_SECONDS = 12

WORKLOADS = (
    ("sim_msg_btd",
     "BTD x synthetic at n=1000: message/handler-bound, sim.events, "
     "sim.engine and core.* do the work and the kernels none"),
    ("sim_msg_btd_shard2",
     "the same cell through run_sharded(2): windows, barriers, export merge "
     "- where a sharding or event-order change shows or hurts"),
    ("sim_uts_td",
     "TD x UTS (838k nodes) at n=256: kernel-bound, engine almost idle - an "
     "event-queue speed-up must show no change here"),
    ("sim_bnb_td",
     "TD x flow-shop B&B (ta23 11x10) at n=64: bnb kernels plus incumbent "
     "broadcasts, bypasses uts entirely"),
    ("live_uts_plain",
     "live p2p fleet n=2 on bin_large, no fault tolerance: compute "
     "dominates, no spool, almost no codec - the bypass for spool/codec work"),
    ("live_uts_ft",
     "live p2p fleet n=2 on bin_small with fault tolerance: reliable "
     "channel and write-ahead spool carry the run, busy share under 20%"),
    ("serve_mix_closed",
     "serve daemon, 2 lanes x 2 workers, closed loop of 4 outstanding jobs "
     "from 2 connections: queue wait, dispatch, job build, report assembly"),
)

# name, unit, better, bound (share of the parent's median it may worsen by).
# One bound serves all seven workloads, so the noisiest sets it.  Two sets of
# ten runs under ten seeds, on a box whose speed swings 30-40 %: the times
# scaled by machine speed (run.machine_speed) spread (q3 - q1) / median =
# 3-15 % and shifted under 3 % between the sets; the served stream, whose
# times stay raw, spread 11-27 % and shifted 14 %.  peak_rss_mb spread 0-4 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_latency_p50_ms", "ms", "lower", 0.25),
    ("job_latency_p95_ms", "ms", "lower", 0.25),
)

_SIM_MSG = ("sim_msg_btd", "sim_msg_btd_shard2")
_SIM = _SIM_MSG + ("sim_uts_td", "sim_bnb_td")
_LIVE = ("live_uts_plain", "live_uts_ft")
_SERVE = ("serve_mix_closed",)


def _moves(metric: str, *workloads: str) -> list:
    return [(metric, w) for w in workloads]


# name, unit, better, moves
PER_LAYER = (
    ("sim.events.ops", "count", "lower", _moves("wall_s", *_SIM_MSG)),
    ("sim.events.self_s", "s", "lower", _moves("wall_s", *_SIM_MSG)),
    ("sim.engine.events_fired", "count", "lower",
     _moves("wall_s", "sim_msg_btd")),
    ("sim.engine.events_equivalent", "count", "lower",
     _moves("wall_s", "sim_msg_btd")),
    ("sim.engine.msgs_transmitted", "count", "lower",
     _moves("wall_s", "sim_msg_btd")),
    ("sim.engine.fused_ratio", "ratio", "higher",
     _moves("wall_s", "sim_msg_btd", "sim_uts_td")),
    ("sim.engine.self_s", "s", "lower", _moves("wall_s", "sim_msg_btd")),
    ("sim.engine.host_us_per_event", "us", "lower",
     _moves("wall_s", "sim_msg_btd")),
    ("sim.engine.makespan_virtual_s", "s", "lower",
     _moves("wall_s", *_SIM)),
    ("sim.shard.windows", "count", "lower",
     _moves("wall_s", "sim_msg_btd_shard2")),
    ("sim.shard.compute_s", "s", "lower",
     _moves("wall_s", "sim_msg_btd_shard2")),
    ("sim.shard.barrier_wait_s", "s", "lower",
     _moves("wall_s", "sim_msg_btd_shard2")),
    ("sim.shard.imbalance", "ratio", "lower",
     _moves("wall_s", "sim_msg_btd_shard2")),
    ("sim.shard.speedup_vs_serial", "ratio", "higher",
     _moves("wall_s", "sim_msg_btd_shard2")),
    ("core.worker.msgs_handled", "count", "lower",
     _moves("wall_s", "sim_msg_btd") + _moves("cpu_s", "live_uts_ft")),
    ("core.worker.self_s", "s", "lower",
     _moves("wall_s", "sim_msg_btd") + _moves("cpu_s", "live_uts_ft")),
    ("core.oclb.steal_requests", "count", "lower",
     _moves("wall_s", "sim_msg_btd", *_LIVE)),
    ("core.oclb.steal_success_ratio", "ratio", "higher",
     _moves("wall_s", "sim_msg_btd", *_LIVE)),
    ("core.oclb.self_s", "s", "lower",
     _moves("wall_s", "sim_msg_btd", *_LIVE)),
    ("core.termination.msgs_handled", "count", "lower",
     _moves("wall_s", *_SIM)),
    ("core.termination.self_s", "s", "lower", _moves("wall_s", *_SIM)),
    ("core.termination.detect_lag_s", "s", "lower",
     _moves("wall_s", *_LIVE) + _moves("job_latency_p50_ms", *_SERVE)),
    ("core.reliable.transfers", "count", "lower",
     _moves("wall_s", "live_uts_ft")),
    ("core.reliable.retransmits", "count", "lower",
     _moves("wall_s", "live_uts_ft")),
    ("core.reliable.self_s", "s", "lower", _moves("wall_s", "live_uts_ft")),
    ("work.splits", "count", "lower", _moves("wall_s", "sim_msg_btd")),
    ("work.self_s", "s", "lower", _moves("wall_s", "sim_msg_btd")),
    ("uts.nodes", "count", "higher",
     _moves("wall_s", "sim_uts_td", "live_uts_plain")),
    ("uts.self_s", "s", "lower",
     _moves("wall_s", "sim_uts_td", "live_uts_plain")),
    ("uts.nodes_per_s", "1/s", "higher",
     _moves("wall_s", "sim_uts_td", "live_uts_plain")),
    ("uts.expand_calls", "count", "lower",
     _moves("wall_s", "sim_uts_td", "live_uts_plain")),
    ("uts.batch_mean", "count", "higher",
     _moves("wall_s", "sim_uts_td", "live_uts_plain")),
    ("bnb.nodes", "count", "lower", _moves("wall_s", "sim_bnb_td")),
    ("bnb.self_s", "s", "lower", _moves("wall_s", "sim_bnb_td")),
    ("bnb.nodes_per_s", "1/s", "higher", _moves("wall_s", "sim_bnb_td")),
    ("bnb.search_overhead_ratio", "ratio", "lower",
     _moves("wall_s", "sim_bnb_td")),
    ("overlay.build_s", "s", "lower", _moves("setup_s", *_SIM)),
    ("experiments.runner.build_s", "s", "lower", _moves("setup_s", *_SIM)),
    ("obs.registry.attached_overhead_ratio", "ratio", "lower",
     _moves("wall_s", "sim_msg_btd")),
    ("obs.report.build_s", "s", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.supervisor.spawn_handshake_s", "s", "lower",
     _moves("setup_s", *_LIVE)),
    ("runtime.supervisor.collect_s", "s", "lower",
     _moves("setup_s", *_LIVE)),
    ("runtime.worker.loop_iters", "count", "lower",
     _moves("wall_s", *_LIVE)),
    ("runtime.worker.idle_s", "s", "lower", _moves("wall_s", *_LIVE)),
    ("runtime.worker.compute_s", "s", "lower", _moves("wall_s", *_LIVE)),
    ("runtime.worker.busy_frac", "ratio", "higher",
     _moves("wall_s", *_LIVE)),
    ("runtime.worker.unattributed_s", "s", "lower",
     _moves("wall_s", *_LIVE)),
    ("runtime.spool.commits", "count", "lower",
     _moves("wall_s", "live_uts_ft") + _moves("cpu_s", "live_uts_ft")),
    ("runtime.spool.self_s", "s", "lower",
     _moves("wall_s", "live_uts_ft") + _moves("cpu_s", "live_uts_ft")),
    ("runtime.spool.bytes", "B", "lower",
     _moves("wall_s", "live_uts_ft") + _moves("cpu_s", "live_uts_ft")),
    ("runtime.spool.bytes_per_commit", "B", "lower",
     _moves("wall_s", "live_uts_ft") + _moves("cpu_s", "live_uts_ft")),
    ("runtime.codec.calls", "count", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.codec.self_s", "s", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.codec.bytes", "B", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.transport.frames", "count", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.transport.self_s", "s", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.mesh.frames", "count", "lower",
     _moves("wall_s", "live_uts_ft")),
    ("runtime.mesh.bytes", "B", "lower", _moves("wall_s", "live_uts_ft")),
    ("runtime.mesh.self_s", "s", "lower", _moves("wall_s", "live_uts_ft")),
    ("runtime.env.timers_fired", "count", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("runtime.env.self_s", "s", "lower",
     _moves("wall_s", "live_uts_ft")
     + _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.daemon.queue_wait_p50_ms", "ms", "lower",
     _moves("job_latency_p95_ms", *_SERVE) + _moves("jobs_per_s", *_SERVE)),
    ("serve.daemon.queue_wait_p95_ms", "ms", "lower",
     _moves("job_latency_p95_ms", *_SERVE) + _moves("jobs_per_s", *_SERVE)),
    ("serve.daemon.rejected_busy", "count", "lower",
     _moves("jobs_per_s", *_SERVE)),
    ("serve.daemon.dead_lettered", "count", "lower",
     _moves("jobs_per_s", *_SERVE)),
    ("serve.daemon.status_ops", "count", "lower",
     _moves("job_latency_p95_ms", *_SERVE)),
    ("serve.daemon.op_self_s", "s", "lower",
     _moves("job_latency_p95_ms", *_SERVE)),
    ("serve.fleet.exec_p50_ms", "ms", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.fleet.exec_p95_ms", "ms", "lower",
     _moves("job_latency_p95_ms", *_SERVE)),
    ("serve.fleet.dispatch_overhead_p50_ms", "ms", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.jobhost.build_p50_ms", "ms", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.jobhost.run_p50_ms", "ms", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.jobhost.busy_frac", "ratio", "higher",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.client.rpc_p50_us", "us", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.client.polls_per_job", "count", "lower",
     _moves("job_latency_p50_ms", *_SERVE)),
    ("serve.client.latency_p99_ms", "ms", "lower",
     _moves("job_latency_p95_ms", *_SERVE)),
    ("trace.overhead_ratio", "ratio", "lower",
     _moves("wall_s", *_SIM, *_LIVE, *_SERVE)),
    ("trace.attributed_frac", "ratio", "higher",
     _moves("wall_s", *_SIM, *_LIVE)),
    ("run.fail_frac", "ratio", "lower",
     _moves("jobs_per_s", *_SIM, *_LIVE, *_SERVE)),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _moves_ in PER_LAYER],
    }


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[k]


def tail_percentile(values: list, q: float) -> float:
    """``q`` when at least ten samples lie beyond it, else the median: a
    percentile with fewer samples beyond it does not repeat."""
    if len(values) * (1.0 - q) >= 10.0:
        return percentile(values, q)
    return median(values)


def end_to_end(reps: list[dict], peak_rss_mb: float) -> dict:
    """The seven end-to-end numbers of one benchmark run.

    A *job* is what one caller waits for: a simulated cell (set-up
    included), one live fleet run (spawn to reap), one served job (submit
    sent to terminal status seen).  ``jobs_per_s`` counts jobs over the
    time the closed loop was open.  Every time is scaled by the machine
    speed measured around its repetition (``run.machine_speed``), so the
    numbers read as if the box ran at the reference speed throughout.
    """
    lat = [ms * r["speed"] for r in reps for ms in r["job_ms"]]
    return {
        "setup_s": median(r["setup_s"] * r["speed"] for r in reps),
        "wall_s": median(r["wall_s"] * r["speed"] for r in reps),
        "cpu_s": median(r["cpu_s"] * r["speed"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "jobs_per_s": len(lat) / sum(r["open_s"] * r["speed"] for r in reps),
        "job_latency_p50_ms": median(lat),
        "job_latency_p95_ms": tail_percentile(lat, 0.95),
    }


# -- per-layer derivation ------------------------------------------------------

_WORKER_ROLES = ("repro.runtime.worker", "repro.serve.jobhost")
_DAEMON_ROLE = ("repro.serve.__main__",)


def _layer(rows: dict, layer: str, column: int, only: str = "") -> float:
    """Sum one column (0 calls, 1 busy, 2 self, 3 amount) over a layer's
    functions, optionally only those whose name contains ``only``."""
    prefix = layer + "|"
    return sum(row[column] for name, row in rows.items()
               if name.startswith(prefix) and only in name)


def per_layer(workload: str, rep: dict, docs: list[dict]) -> dict:
    """Every per-layer metric of one traced repetition (0 where the layer
    did not run — that a layer was bypassed is itself a result)."""
    out = {name: 0.0 for name, *_ in PER_LAYER}
    obs = rep["obs"]
    live = workload in _LIVE
    serve = workload in _SERVE
    if live or serve:
        # protocol and kernels run inside workers / jobhosts, between the
        # frame that starts their run and their "done" report
        rows = fold_layers(docs, roles=_WORKER_ROLES, phases=("run",))
        attributed = sum(row[2] for row in rows.values())
        for name, row in fold_layers(docs, roles=_DAEMON_ROLE).items():
            if name.startswith(("serve.daemon|", "obs|")):
                rows[name] = row
    else:
        rows = fold_layers(docs)
        attributed = sum(row[2] for row in rows.values())

    def s(layer, col, only=""):
        return _layer(rows, layer, col, only)

    out["sim.events.ops"] = s("sim.events", 0)
    out["sim.events.self_s"] = s("sim.events", 2)
    out["sim.engine.self_s"] = s("sim.engine", 2)
    out["core.worker.msgs_handled"] = s("core.worker", 0, "on_message")
    out["core.worker.self_s"] = s("core.worker", 2)
    out["core.oclb.self_s"] = s("core.oclb", 2)
    out["core.termination.msgs_handled"] = s("core.termination", 0,
                                             ".handle")
    out["core.termination.self_s"] = s("core.termination", 2)
    out["core.reliable.transfers"] = s("core.reliable", 0, ".send")
    out["core.reliable.self_s"] = s("core.reliable", 2)
    out["work.splits"] = s("work", 0, ".split")
    out["work.self_s"] = s("work", 2)
    out["uts.self_s"] = s("uts", 2)
    out["uts.expand_calls"] = s("uts", 0, "tree.expand")
    if out["uts.expand_calls"]:
        out["uts.batch_mean"] = (s("uts", 3, "tree.expand")
                                 / out["uts.expand_calls"])
    out["bnb.self_s"] = s("bnb", 2)
    out["overlay.build_s"] = s("overlay", 1)
    # build_workers calls worker_factory: its inclusive time covers both
    out["experiments.runner.build_s"] = (
        s("experiments.runner", 1, "build_workers")
        or s("experiments.runner", 1))
    out["obs.report.build_s"] = s("obs", 1)
    out["runtime.worker.loop_iters"] = s("idle", 0)
    out["runtime.worker.idle_s"] = s("idle", 2)
    out["runtime.spool.commits"] = s("runtime.spool", 0, "write_spool")
    out["runtime.spool.self_s"] = s("runtime.spool", 2)
    out["runtime.spool.bytes"] = s("runtime.spool", 3)
    if out["runtime.spool.commits"]:
        out["runtime.spool.bytes_per_commit"] = (
            out["runtime.spool.bytes"] / out["runtime.spool.commits"])
    out["runtime.codec.calls"] = s("runtime.codec", 0)
    out["runtime.codec.self_s"] = s("runtime.codec", 2)
    out["runtime.codec.bytes"] = s("runtime.codec", 3)
    out["runtime.transport.frames"] = (
        s("runtime.transport", 3, "send_frame")
        + s("runtime.transport", 3, "receive"))
    out["runtime.transport.self_s"] = s("runtime.transport", 2)
    out["runtime.mesh.frames"] = s("runtime.mesh", 3, ".send")
    out["runtime.mesh.self_s"] = s("runtime.mesh", 2)
    out["runtime.env.timers_fired"] = s("runtime.env", 3)
    out["runtime.env.self_s"] = s("runtime.env", 2)
    out["serve.daemon.status_ops"] = s("serve.daemon", 0, "op_status")
    out["serve.daemon.op_self_s"] = s("serve.daemon", 2)

    # counts the program itself reports (exact, repeat to the digit)
    for key in ("sim.engine.events_fired", "sim.engine.events_equivalent",
                "sim.engine.msgs_transmitted", "sim.engine.fused_ratio",
                "sim.engine.makespan_virtual_s", "core.oclb.steal_requests",
                "core.oclb.steal_success_ratio",
                "core.termination.detect_lag_s",
                "core.reliable.retransmits", "uts.nodes", "bnb.nodes",
                "bnb.search_overhead_ratio", "runtime.worker.compute_s",
                "runtime.mesh.bytes"):
        out[key] = float(obs.get(key, 0.0))
    out.update(rep.get("layer", {}))            # serve percentiles etc.

    wall = rep["wall_s"]
    if out["sim.engine.events_fired"]:
        out["sim.engine.host_us_per_event"] = (
            1e6 * wall / out["sim.engine.events_fired"])
    if out["uts.self_s"]:
        out["uts.nodes_per_s"] = out["uts.nodes"] / out["uts.self_s"]
    if out["bnb.self_s"]:
        out["bnb.nodes_per_s"] = out["bnb.nodes"] / out["bnb.self_s"]

    if live:
        window = rep["n"] * wall                # n x makespan
        out["runtime.worker.busy_frac"] = (
            out["runtime.worker.compute_s"] / window)
        out["runtime.worker.unattributed_s"] = max(0.0, window - attributed)
        out["trace.attributed_frac"] = attributed / window
        out.update(_supervisor_spans(docs))
    elif serve:
        builds = [(end - start) * 1e3 for doc in docs for sp in doc["spans"]
                  if sp and sp[0].endswith("build_app")
                  for start, end in [sp[1:3]]]
        if builds:
            out["serve.jobhost.build_p50_ms"] = percentile(builds, 0.5)
    else:
        # a sharded run is the driving process plus its shard processes,
        # side by side for the length of the run
        shards = len(rep["shard_walls"])
        window = rep["setup_s"] + wall * (shards + 1 if shards else 1)
        out["trace.attributed_frac"] = attributed / window
    if workload == "sim_msg_btd_shard2":
        walls = rep["shard_walls"]
        out["sim.shard.windows"] = (
            s("sim.engine", 0, "run_window") / len(walls))
        out["sim.shard.compute_s"] = sum(walls)
        out["sim.shard.barrier_wait_s"] = sum(wall - w for w in walls)
        out["sim.shard.imbalance"] = max(walls) * len(walls) / sum(walls)
    return out


def _supervisor_spans(docs: list[dict]) -> dict:
    """Spawn/handshake and collect time of one fleet run, from the
    supervisor's ``run_live`` span and the control frames it saw."""
    for doc in docs:
        runs = [sp for sp in doc["spans"]
                if sp and sp[0].endswith("run_live")]
        if not runs:
            continue
        _name, start, end, *_ = runs[-1]
        go = [t for kind, t, sent, _id in doc["marks"]
              if kind == "go" and sent and start <= t <= end]
        done = [t for kind, t, sent, _id in doc["marks"]
                if kind == "done" and not sent and start <= t <= end]
        if go and done:
            return {"runtime.supervisor.spawn_handshake_s": min(go) - start,
                    "runtime.supervisor.collect_s": end - max(done)}
    return {}
