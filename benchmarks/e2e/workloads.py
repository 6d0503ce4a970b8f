"""The seven workloads: inputs from the seed, one repetition, the oracle.

Every workload drives ``src/`` through public entry points only.  A
repetition returns a dict with

* ``setup_s`` / ``wall_s`` / ``cpu_s`` — the timings of this repetition;
* ``job_ms`` — latency of every job a caller waited for, ``open_s`` — how
  long the closed loop that issued them was open;
* ``attempted`` / ``failed`` / ``errors`` — operations and oracle failures;
* ``obs`` — exact observables (compared between repetitions of one seed,
  and the source of the count-type per-layer metrics).

Sizes are for a 2-core box and a ~12 s run (see README.md for the budget);
``smoke=True`` shrinks every workload to a toy that still takes each path.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time

import repro
from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.experiments.runner import RunConfig, build_workers
from repro.experiments.scale import fleet_network, fleet_pacing
from repro.experiments.specs import BnBSpec
from repro.runtime.supervisor import LiveConfig, run_live
from repro.serve.client import ServeClient
from repro.sim.engine import Simulator
from repro.sim.network import grid5000
from repro.sim.shard import run_sharded
from repro.uts.params import get_preset
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams

import e2e_trace
from metrics import percentile

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_now = time.perf_counter


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _cpu(in_process: bool) -> float:
    """CPU seconds so far of the system under test: its reaped child
    processes, plus this process when the system runs inside it."""
    return _children_cpu() + (time.process_time() if in_process else 0.0)


def peak_rss_mb(in_process: bool) -> float:
    """Largest resident set of any process of the system under test."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def _sub_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep``.  Repetitions 0 and 1 share one seed, so
    every run also checks that equal inputs give equal observables."""
    return seed * 1009 + max(0, rep - 1)


# -- simulated path ------------------------------------------------------------

class SimCell:
    """One protocol x application cell of the simulated path."""

    in_process = True

    def __init__(self, *, kind: str, protocol: str, n: int, quantum: int,
                 app_builder, fleet: bool, shards: int = 1,
                 expected_units=None, sequential=None) -> None:
        self.kind = kind                    # "synthetic", "uts" or "bnb"
        self.protocol = protocol
        self.n = n
        self.quantum = quantum
        self.app_builder = app_builder      # zero-argument, picklable
        self.fleet = fleet                  # flat 10 ms fleet vs grid5000
        self.shards = shards
        self.calibrators = shards           # cores the cell keeps busy
        # oracles, evaluated after the timed repetitions
        self.expected_units = expected_units    # () -> exact unit count
        self.sequential = sequential            # () -> (optimum, nodes)

    def config(self, seed: int) -> RunConfig:
        if not self.fleet:
            return RunConfig(self.protocol, n=self.n, quantum=self.quantum,
                             seed=seed)
        oclb, ack_timeout = fleet_pacing(1e-2)
        return RunConfig(self.protocol, n=self.n, quantum=self.quantum,
                         seed=seed, network=fleet_network(self.n, 1e-2),
                         oclb=oclb, ack_timeout=ack_timeout)

    def rep(self, seed: int, rep: int, *, metrics=None) -> dict:
        seed = _sub_seed(seed, rep)
        cpu0 = _cpu(True)
        t0 = _now()
        cfg = self.config(seed)
        optimum = None
        shard_walls: list = []
        if self.shards > 1:
            t1 = _now()
            result, stats, shard_walls = run_sharded(
                cfg, self.app_builder, self.shards)
            t2 = _now()
            optimum = result.optimum
        else:
            app = self.app_builder()
            network = cfg.network if cfg.network is not None else grid5000(
                handler_cost=cfg.handler_cost, jitter=cfg.jitter)
            sim = Simulator(network=network, seed=cfg.seed, fuse=cfg.fuse,
                            metrics=metrics)
            workers = build_workers(sim, cfg, app)
            t1 = _now()
            stats = sim.run()
            t2 = _now()
            values = [app.shared_value(w.shared) for w in workers
                      if w.shared is not None]
            values = [v for v in values if v is not None]
            optimum = min(values) if values else None
        cpu = _cpu(True) - cpu0
        eq = stats.events_equivalent
        steals = stats.total_steals
        obs = {
            "seed": seed,
            "total_units": stats.total_work_units,
            "optimum": optimum,
            "sim.engine.events_fired": stats.events_fired,
            "sim.engine.events_equivalent": eq,
            "sim.engine.msgs_transmitted": stats.total_msgs,
            "sim.engine.fused_ratio": (
                (stats.fused_quanta - stats.macro_events) / eq if eq else 0.0),
            "sim.engine.makespan_virtual_s": stats.makespan,
            "core.oclb.steal_requests": steals,
            "core.oclb.steal_success_ratio": (
                stats.total_steals_ok / steals if steals else 0.0),
            "core.termination.detect_lag_s": (
                stats.makespan - stats.work_done_time),
        }
        return {"setup_s": t1 - t0, "wall_s": t2 - t1, "cpu_s": cpu,
                "job_ms": [(t2 - t0) * 1e3], "open_s": t2 - t0,
                "attempted": 1, "failed": 0, "errors": [], "obs": obs,
                "shard_walls": list(shard_walls)}

    def verify(self, reps: list[dict]) -> None:
        """Exact conservation, the sequential optimum, and determinism."""
        units = self.expected_units() if self.expected_units else None
        best, seq_nodes = self.sequential() if self.sequential else (None, 0)
        by_seed: dict = {}
        for r in reps:
            obs = r["obs"]
            if units is not None and obs["total_units"] != units:
                _fail(r, f"conservation: {obs['total_units']} units, "
                         f"expected exactly {units}")
            if best is not None and obs["optimum"] != best:
                _fail(r, f"optimum {obs['optimum']} != sequential {best}")
            first = by_seed.setdefault(obs["seed"], dict(obs))
            if first != obs:
                _fail(r, f"seed {obs['seed']} did not repeat: "
                         f"{first} vs {obs}")
            if self.kind == "uts":
                obs["uts.nodes"] = obs["total_units"]
            elif self.kind == "bnb":
                obs["bnb.nodes"] = obs["total_units"]
                obs["bnb.search_overhead_ratio"] = (
                    obs["total_units"] / seq_nodes)


def _fail(rep: dict, message: str) -> None:
    rep["errors"].append(message)
    rep["failed"] = rep["attempted"]


def _bnb_sequential(index: int, n_jobs: int, n_machines: int) -> tuple:
    """(optimum, nodes) of one sequential solve with the same instance,
    bound and warm start the parallel run uses."""
    app = BnBSpec(index, n_jobs=n_jobs, n_machines=n_machines).build()
    optimum, _perm, nodes = app.engine.solve(app.make_shared())
    return optimum, nodes


def _msg_cell(smoke: bool, shards: int) -> SimCell:
    n, per_node = (100, 1000) if smoke else (1000, 5000)
    return SimCell(
        kind="synthetic", protocol="BTD", n=n, quantum=16, fleet=True,
        shards=shards,
        app_builder=functools.partial(SyntheticApplication, per_node * n,
                                      unit_cost=1e-6),
        expected_units=lambda: per_node * n)


def _uts_cell(smoke: bool) -> SimCell:
    # bin_large's shape (b0 = 50000, m = 2) backed off to q = 0.47: 833k
    # nodes, a sixth of bin_large, so that several repetitions fit a run
    params = (get_preset("bin_tiny").params if smoke else
              UTSParams(variant="bin", b0=50000, q=0.47, m=2, root_seed=1))
    return SimCell(
        kind="uts", protocol="TD", n=32 if smoke else 256, quantum=16,
        fleet=True,
        app_builder=functools.partial(UTSApplication, params),
        expected_units=lambda: count_tree(params).nodes)


def _bnb_cell(smoke: bool) -> SimCell:
    coords = (1, 8, 5) if smoke else (3, 11, 10)    # Ta(20+i), jobs, machines
    return SimCell(
        kind="bnb", protocol="TD", n=16 if smoke else 64, quantum=64,
        fleet=False,
        app_builder=BnBSpec(coords[0], n_jobs=coords[1],
                            n_machines=coords[2]),
        sequential=lambda: _bnb_sequential(*coords))


# -- live path -----------------------------------------------------------------

class LiveFleet:
    """One live p2p fleet run of UTS on two worker processes."""

    in_process = True       # the supervisor is part of the system
    n = 2
    calibrators = 2         # both workers compute side by side

    def __init__(self, preset: str, fault_tolerance: bool, tmp: str) -> None:
        self.preset = preset
        self.fault_tolerance = fault_tolerance
        self.tmp = tmp

    def rep(self, seed: int, rep: int) -> dict:
        run_dir = os.path.join(self.tmp, f"live-{rep}")
        cfg = LiveConfig("BTD", n=self.n, p2p=True, seed=_sub_seed(seed, rep),
                         fault_tolerance=self.fault_tolerance,
                         run_dir=run_dir,
                         app={"kind": "uts", "preset": self.preset})
        out = {"attempted": 1, "failed": 0, "errors": [], "n": self.n}
        cpu0 = _cpu(True)
        t0 = _now()
        try:
            live = run_live(cfg)
        except Exception as exc:    # a fleet run that raises is a failed job
            total = _now() - t0
            out.update(setup_s=total, wall_s=total, obs={})
            _fail(out, f"run_live raised {type(exc).__name__}: {exc}")
        else:
            total = _now() - t0
            res = live.result
            out.update(setup_s=total - res.makespan, wall_s=res.makespan)
            out["obs"] = {
                "total_units": res.total_units,
                "conserved": live.conserved,
                "uts.nodes": res.total_units,
                "core.oclb.steal_requests": res.total_steals,
                "core.oclb.steal_success_ratio": (
                    live.stats.total_steals_ok / res.total_steals
                    if res.total_steals else 0.0),
                "core.termination.detect_lag_s": (
                    res.makespan - res.work_done_time),
                "core.reliable.retransmits": res.retransmits,
                "runtime.worker.compute_s": live.stats.total_busy,
                "runtime.mesh.bytes": sum(b for _f, b in live.links.values()),
            }
        out["cpu_s"] = _cpu(True) - cpu0
        out["job_ms"] = [total * 1e3]
        out["open_s"] = total
        shutil.rmtree(run_dir, ignore_errors=True)
        return out

    def verify(self, reps: list[dict]) -> None:
        nodes = get_preset(self.preset).nodes
        for r in reps:
            obs = r["obs"]
            if not obs:
                continue
            if obs["total_units"] != nodes:
                _fail(r, f"live run counted {obs['total_units']} nodes, "
                         f"expected exactly {nodes}")
            if self.fault_tolerance and obs["conserved"] != nodes:
                _fail(r, f"conservation identity gave {obs['conserved']}, "
                         f"expected exactly {nodes}")


# -- served path ---------------------------------------------------------------

SERVE_SPECS = (
    {"kind": "synthetic", "units": 20000},
    {"kind": "uts", "preset": "bin_mini"},
    {"kind": "synthetic", "units": 8000},
    {"kind": "uts", "preset": "bin_tiny"},
)
POLL_S = 0.002          # status poll period (the client default is 20 ms)
CONNECTIONS = 2         # = nproc: the load generator's threads
OUTSTANDING = 2         # jobs each connection keeps in flight


def _spec_units(spec: dict) -> int:
    if spec["kind"] == "synthetic":
        return spec["units"]
    preset = get_preset(spec["preset"])
    return preset.nodes or count_tree(preset.params).nodes


class ServeStream:
    """A closed-loop job stream against one ``python -m repro.serve``.

    ``CONNECTIONS`` client connections each keep ``OUTSTANDING`` jobs in
    flight (concurrency 4 over 2 lanes, so jobs queue), polling ``status``
    every ``POLL_S``.  The stream holds each spec equally often; the seed
    draws the order.  A ``busy`` refusal is a failed job, never retried.
    """

    in_process = False      # this process is only the load generator
    calibrators = 0         # times stay raw, see run.machine_speed

    def __init__(self, jobs: int, tmp: str) -> None:
        self.jobs = jobs
        self.tmp = tmp

    def stream(self, seed: int, rep: int) -> list[dict]:
        specs = [SERVE_SPECS[i % len(SERVE_SPECS)] for i in range(self.jobs)]
        random.Random(_sub_seed(seed, rep)).shuffle(specs)
        return specs

    def rep(self, seed: int, rep: int) -> dict:
        traced = bool(os.environ.get(e2e_trace.ENV_DIR))
        # relative paths: an AF_UNIX address holds ~100 bytes, and the
        # checkout may sit deep in the file system
        run_dir = os.path.relpath(os.path.join(self.tmp, f"serve-{rep}"))
        os.makedirs(run_dir)
        address = "unix:" + os.path.join(run_dir, "api.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), SRC_DIR) if p)
        specs = self.stream(seed, rep)
        cpu0 = _cpu(False)
        t0 = _now()
        with open(os.path.join(run_dir, "daemon.log"), "wb") as log:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--socket",
                 address[5:], "--lanes", "2", "--n", "2", "--run-dir",
                 os.path.join(run_dir, "lanes")],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        out = {"attempted": len(specs), "failed": 0, "errors": [],
               "layer": {}}
        try:
            control = ServeClient(address).connect(retry_for_s=60.0)
            boot_deadline = _now() + 60.0
            while not all(lane["state"] == "idle"
                          for lane in control.fleet()["lanes"]):
                if _now() > boot_deadline:
                    raise RuntimeError("serve lanes did not become idle")
                time.sleep(0.005)
            for spec in SERVE_SPECS:        # warm every spec's code path
                accepted = control.submit(spec)
                control.wait(accepted["job_id"], poll=POLL_S)
            t1 = _now()
            if traced:
                out["layer"]["serve.client.rpc_p50_us"] = _ping_us(control)
            jobs = _closed_loop(address, specs)
            t2 = _now()
            stats = control.stats()
            if traced:
                out["layer"].update(_sampled_reports(control, jobs))
            control.shutdown()
            control.close()
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        out["cpu_s"] = _cpu(False) - cpu0
        shutil.rmtree(run_dir, ignore_errors=True)

        done = [j for j in jobs if j["state"] == "done"]
        out.update(setup_s=t1 - t0, wall_s=t2 - t1, open_s=t2 - t1,
                   job_ms=[j["latency_ms"] for j in done])
        out["failed"] = len(specs) - len(done)
        expected = sum(_spec_units(s) for s in specs)
        units = sum(j["total_units"] for j in done)
        if out["failed"]:
            out["errors"].append(
                f"{out['failed']} of {len(specs)} jobs refused, dead or lost")
        if units != expected and not out["failed"]:
            _fail(out, f"served {units} units, expected exactly {expected}")
        if (stats["accepted"] - len(SERVE_SPECS) != len(done)
                or stats["dead_lettered"]) and not out["failed"]:
            _fail(out, f"daemon accounting: {stats['accepted']} accepted, "
                       f"{stats['dead_lettered']} dead-lettered, "
                       f"{len(done)} done")
        out["obs"] = {"total_units": units}
        if done:
            queue = [j["queue_ms"] for j in done]
            execs = [j["exec_ms"] for j in done]
            out["layer"].update({
                "serve.daemon.queue_wait_p50_ms": percentile(queue, 0.5),
                "serve.daemon.queue_wait_p95_ms": percentile(queue, 0.95),
                "serve.daemon.rejected_busy": stats["rejected_busy"],
                "serve.daemon.dead_lettered": stats["dead_lettered"],
                "serve.fleet.exec_p50_ms": percentile(execs, 0.5),
                "serve.fleet.exec_p95_ms": percentile(execs, 0.95),
                "serve.fleet.dispatch_overhead_p50_ms": percentile(
                    [j["exec_ms"] - j["run_ms"] for j in done], 0.5),
                "serve.jobhost.run_p50_ms": percentile(
                    [j["run_ms"] for j in done], 0.5),
                "serve.client.polls_per_job": (
                    sum(j["polls"] for j in jobs) / len(jobs)),
                "serve.client.latency_p99_ms": percentile(
                    out["job_ms"], 0.99),
            })
        return out

    def verify(self, reps: list[dict]) -> None:
        pass        # checked per repetition, while the daemon's stats exist


def _ping_us(client: ServeClient, count: int = 200) -> float:
    samples = []
    for _ in range(count):
        t0 = _now()
        client.ping()
        samples.append((_now() - t0) * 1e6)
    return percentile(samples, 0.5)


def _sampled_reports(client: ServeClient, jobs: list[dict]) -> dict:
    """Busy share and termination lag from the ``report`` of every 20th
    job (a report is ~10 kB; asking for all would measure the asking)."""
    busy, lag = [], []
    for job in jobs[::20]:
        if job["state"] != "done":
            continue
        report = client.report(job["job_id"])["report"]
        busy.append(report["idle_breakdown"]["busy_frac"])
        lag.append(report["totals"]["makespan"]
                   - report["totals"]["work_done_time"])
    if not busy:
        return {}
    return {"serve.jobhost.busy_frac": percentile(busy, 0.5),
            "core.termination.detect_lag_s": percentile(lag, 0.5)}


def _closed_loop(address: str, specs: list[dict]) -> list[dict]:
    """Run the stream; one record per job, in submission order."""
    records: list[dict] = [{"state": "unsent", "polls": 0} for _ in specs]
    cursor = iter(range(len(specs)))
    lock = threading.Lock()
    crashes: list[BaseException] = []

    def connection() -> None:
        try:
            with ServeClient(address) as client:
                flying: dict[str, int] = {}
                while True:
                    while len(flying) < OUTSTANDING:
                        with lock:
                            i = next(cursor, None)
                        if i is None:
                            break
                        rec = records[i]
                        rec["t_submit"] = _now()
                        accepted = client.submit(specs[i])
                        if not accepted.get("ok"):      # busy: not retried
                            rec["state"] = accepted.get("error", "refused")
                            continue
                        rec["job_id"] = accepted["job_id"]
                        flying[accepted["job_id"]] = i
                    if not flying:
                        return
                    for job_id, i in list(flying.items()):
                        status = client.status(job_id)
                        rec = records[i]
                        rec["polls"] += 1
                        state = status.get("state")
                        if state == "done":
                            rec.update(
                                latency_ms=(_now() - rec["t_submit"]) * 1e3,
                                queue_ms=status["queue_s"] * 1e3,
                                exec_ms=status["exec_s"] * 1e3,
                                run_ms=status["makespan"] * 1e3,
                                total_units=status["total_units"])
                        if state in ("done", "dead") or not status.get("ok"):
                            rec["state"] = state or "lost"
                            del flying[job_id]
                    time.sleep(POLL_S)
        except BaseException as exc:    # surfaces in the caller's thread
            crashes.append(exc)

    threads = [threading.Thread(target=connection)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashes:
        raise crashes[0]
    return records


# -- registry ------------------------------------------------------------------

def build(name: str, smoke: bool, tmp: str):
    """The workload object for ``name`` (sizes per ``smoke``)."""
    if name == "sim_msg_btd":
        return _msg_cell(smoke, shards=1)
    if name == "sim_msg_btd_shard2":
        return _msg_cell(smoke, shards=2)
    if name == "sim_uts_td":
        return _uts_cell(smoke)
    if name == "sim_bnb_td":
        return _bnb_cell(smoke)
    if name == "live_uts_plain":
        return LiveFleet("bin_tiny" if smoke else "bin_large", False, tmp)
    if name == "live_uts_ft":
        return LiveFleet("bin_tiny" if smoke else "bin_small", True, tmp)
    if name == "serve_mix_closed":
        return ServeStream(24 if smoke else 240, tmp)
    raise SystemExit(f"unknown workload {name!r}")
