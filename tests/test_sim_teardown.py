"""A finished run frees itself: no reference cycles.

The substrate owns its processes; a process reaches its substrate, and a
protocol component (size converge-cast, termination waves, reliable
channel) its host, only weakly (``repro.sim.process``). So once the
caller drops a finished run, reference counting frees every object of it,
and the cycle collector finds nothing. A cycle left anywhere in the graph
keeps the whole run - the event queue's targets, every worker, its pool -
alive until a full collection, which a sweep of many cells pays for in
peak memory.

Every check runs with the automatic collector off, so an object freed
here was freed by reference counting.
"""

import gc
import time
import weakref

import pytest

from repro.apps.bnb_app import BnBApplication
from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.bnb.taillard import scaled_instance
from repro.experiments.runner import PROTOCOLS, RunConfig, build_workers
from repro.runtime import env as live_env
from repro.runtime.supervisor import LiveConfig, run_live
from repro.sim import SimProcess, Simulator, grid5000, uniform_network
from repro.sim.faults import FaultPlan
from repro.uts.params import PRESETS

# the protocol modules are imported lazily by the worker factory; import
# them here, so their class-creation garbage is not counted as a run's
import repro.baselines.ahmw  # noqa: F401
import repro.baselines.lifeline  # noqa: F401
import repro.baselines.master_worker  # noqa: F401
import repro.baselines.rws  # noqa: F401
import repro.core.oclb  # noqa: F401

from test_runtime_reactor import Harness, synthetic

N = 8
APPS = {
    "synthetic": lambda: SyntheticApplication(4000, unit_cost=1e-6),
    "uts": lambda: UTSApplication(PRESETS["bin_tiny"].params),
    "bnb": lambda: BnBApplication(scaled_instance(3, n_jobs=6,
                                                  n_machines=4)),
}
#: the single-master schemes are B&B-only; they and LIFELINE carry no
#: self-healing machinery, so they run clean only
_BNB_ONLY = ("MW", "AHMW")
_CLEAN_ONLY = ("MW", "AHMW", "LIFELINE")
#: one crash inside the run, plus message loss
PLAN = FaultPlan(crashes=((5, 1.5e-3),), loss=0.05)


def _cells():
    for proto in PROTOCOLS:
        for app in APPS:
            if proto in _BNB_ONLY and app != "bnb":
                continue
            for faulted in (False, True):
                if faulted and proto in _CLEAN_ONLY:
                    continue
                for fuse in (True, False):
                    yield proto, app, faulted, fuse


def _run_and_drop(proto: str, app_name: str, faulted: bool,
                  fuse: bool) -> int:
    """Run one cell to its end, drop it, and return the number of objects
    the cycle collector then finds."""
    app = APPS[app_name]()
    plan = PLAN if faulted else None
    cfg = RunConfig(proto, n=N, dmax=3, quantum=16, seed=11, faults=plan,
                    fuse=fuse)
    gc.collect()
    gc.disable()
    try:
        sim = Simulator(network=grid5000(), seed=cfg.seed, faults=plan,
                        fuse=fuse)
        workers = build_workers(sim, cfg, app)
        sim.run()
        assert all(w.terminated for w in workers if not w._crashed)
        del sim, workers
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("proto,app,faulted,fuse", list(_cells()))
def test_a_dropped_finished_run_leaves_no_cyclic_garbage(proto, app,
                                                         faulted, fuse):
    assert _run_and_drop(proto, app, faulted, fuse) == 0


def test_a_process_does_not_keep_its_simulator_alive():
    """The ownership rule: reading the clock after the substrate is gone
    raises, it does not answer a stale value."""
    sim = Simulator(uniform_network(latency=1e-4), seed=0)
    proc = sim.add_process(SimProcess(0))
    sim.run()
    assert proc.now == sim.now == 0.0
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    with pytest.raises(ReferenceError):
        proc.now


@pytest.mark.parametrize("fault_mode", [False, True])
def test_a_finished_live_job_frees_its_worker_and_env(tmp_path, monkeypatch,
                                                      fault_mode):
    """One job on the in-process reactor fleet: once ``job_end`` is
    through, the job's worker and ``LiveEnv`` are gone on reference
    counting alone."""
    attached = []
    attach = live_env.LiveEnv.attach

    def recording_attach(env, proc):
        attached.append((weakref.ref(env), weakref.ref(proc)))
        attach(env, proc)

    monkeypatch.setattr(live_env.LiveEnv, "attach", recording_attach)
    gc.collect()
    gc.disable()
    h = Harness(str(tmp_path), fault_mode=fault_mode)
    try:
        h.go()
        assert h.run_job(1, synthetic(2000)) == 2000
        assert len(attached) == 2

        def alive():
            return [r for pair in attached for r in pair if r() is not None]

        end = time.monotonic() + 10.0
        while alive() and time.monotonic() < end:
            h.fleet.pump(0.02)
        assert not alive(), "a finished job's worker or env outlived it"
        h.fleet.broadcast({"t": "shutdown"})
        h.pump_until(lambda: len(h.codes) == 2)
    finally:
        gc.enable()
        h.close()


def test_a_finished_live_run_leaves_no_cyclic_garbage():
    """The owner side of a one-shot run: once ``run_live`` has returned and
    the caller drops its result, the run, its fleet, the member processes
    and their connections are freed by reference counting."""
    cfg = LiveConfig(n=2, app={"kind": "uts", "preset": "bin_tiny"}, seed=3)
    run_live(cfg)   # first-call garbage (imports, caches) is not a run's
    gc.collect()
    gc.disable()
    try:
        live = run_live(cfg)
        assert live.result.total_units == PRESETS["bin_tiny"].nodes
        del live
        assert gc.collect() == 0
    finally:
        gc.enable()
