"""Live multi-process backend: cross-validation against the simulator.

These tests spawn real OS worker processes connected over sockets and
check the properties the paper's testbed runs rely on:

* a live UTS run explores exactly the sequential node count (and exactly
  what the discrete-event simulator explores);
* a live B&B run finds exactly the simulator's optimal makespan;
* ``kill -9`` on a worker mid-run still terminates, and the write-ahead
  spools make the four-place work-conservation identity exact;
* the supervisor drains its fleet on interruption — no orphan processes,
  no leaked sockets.

Each run costs a second or two of wall clock; the suite stays small.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import run_instrumented
from repro.runtime.env import LIVE_SLICE_UNITS
from repro.runtime.supervisor import LiveConfig, run_live
from repro.runtime.worker import build_app
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree

TINY = count_tree(PRESETS["bin_tiny"].params)
TINY_NODES = TINY.nodes
UTS_TINY = {"kind": "uts", "preset": "bin_tiny"}
#: for runs whose fault edges are scheduled on the wall clock or on a
#: victim's progress: ``bin_tiny`` can finish before a 40-70 ms edge fires
#: or a non-root worker has seen 400 units, this one runs for a few 100 ms
SMALL_NODES = PRESETS["bin_small"].nodes   # exact, verified by tests
UTS_SMALL = {"kind": "uts", "preset": "bin_small"}
#: for edges on the wall clock: one slice per reactor turn clears
#: bin_small on four workers in a few 10 ms, this one takes ~0.2 s
LARGE_NODES = PRESETS["bin_large"].nodes
UTS_LARGE = {"kind": "uts", "preset": "bin_large"}


def _children_of(pid: int) -> set[int]:
    """Live child pids of ``pid``, via /proc (no helper subprocesses that
    would themselves show up as children)."""
    kids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            # fields[0] is state, fields[1] is ppid; zombies count as
            # leaks too — an unreaped child is a supervisor bug
            if int(fields[1]) == pid:
                kids.add(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return kids


# -- clean runs == simulator -------------------------------------------------

@pytest.mark.parametrize("n", [2, 4])
def test_live_uts_matches_sequential_and_simulator(n):
    cfg = LiveConfig(protocol="BTD", n=n, app=UTS_TINY, seed=11,
                     timeout_s=60.0)
    live = run_live(cfg)
    assert live.result.total_units == TINY_NODES
    app, _ = build_app(UTS_TINY)
    sim, _stats = run_instrumented(cfg.sim_config(), app)
    assert live.result.total_units == sim.total_units
    assert live.result.crashes == 0
    assert live.killed == ()


def test_live_rws_baseline_matches_node_count():
    live = run_live(LiveConfig(protocol="RWS", n=4, app=UTS_TINY, seed=11,
                               timeout_s=60.0))
    assert live.result.total_units == TINY_NODES


def test_live_bnb_matches_simulated_optimum():
    spec = {"kind": "bnb", "index": 1, "jobs": 8, "machines": 5}
    cfg = LiveConfig(protocol="BTD", n=4, app=spec, seed=11, timeout_s=90.0)
    live = run_live(cfg)
    app, _ = build_app(spec)
    sim, _stats = run_instrumented(cfg.sim_config(), app)
    assert live.result.optimum is not None
    assert live.result.optimum == sim.optimum
    # node counts legitimately differ (bound-arrival timing), the
    # incumbent value must not


def test_live_bnb_survives_merged_pools_on_the_wire():
    """At 10x10 a pool that absorbed a transfer gets split again, so
    non-ascending interval lists cross the wire — which used to kill the
    receiving worker in ``from_wire``.  The codec knows B&B work by its
    wire tag and imports the class at the first piece: with two workers
    one side meets it encoding, the other decoding."""
    spec = {"kind": "bnb", "index": 1, "jobs": 10, "machines": 10}
    live = run_live(LiveConfig(protocol="BTD", n=2, app=spec, seed=1,
                               timeout_s=90.0))
    app, _ = build_app(spec)
    optimum, _perm, _nodes = app.engine.solve()
    assert live.result.optimum == optimum
    assert live.metrics.histogram("work.transfer_units").count > 0


def test_live_bnb_fault_mode_keeps_its_guarantees():
    """A live slice of B&B nodes stays well inside the ack timeout: in
    fault mode the live optimum is the sequential one, no circuit breaker
    opens on a healthy peer, and the identity is exact."""
    spec = {"kind": "bnb", "index": 3, "jobs": 11, "machines": 10}
    live = run_live(LiveConfig(protocol="BTD", n=2, app=spec, seed=1,
                               fault_tolerance=True, timeout_s=120.0))
    optimum, _perm, _nodes = build_app(spec)[0].engine.solve()
    assert live.result.optimum == optimum
    assert live.result.breaker_opens == 0
    assert live.conserved == live.result.total_units


def test_live_bnb_at_the_papers_machine_count_slices_by_time():
    """Ta21 on its 20 machines with the paper's bound (truncated to 10
    jobs): a first slice of LIVE_SLICE_UNITS nodes takes ~20 ms, the ack
    timeout, so each worker halves its allowance until a slice fits the
    budget.  The guarantees of fault mode hold, and the mean slice is
    under half the first one (1,800-2,000 nodes when every slice was
    2,048) - a count, not a timing."""
    spec = {"kind": "bnb", "index": 1, "jobs": 10, "machines": 20,
            "bound": "llrk"}
    live = run_live(LiveConfig(protocol="BTD", n=2, app=spec, seed=1,
                               fault_tolerance=True, timeout_s=120.0))
    optimum, _perm, _nodes = build_app(spec)[0].engine.solve()
    assert live.result.optimum == optimum
    assert live.result.breaker_opens == 0
    assert live.conserved == live.result.total_units
    units = live.metrics.counter("compute.units").value
    assert 2 * units < LIVE_SLICE_UNITS * live.metrics.counter(
        "compute.quanta").value
    assert live.metrics.histogram("compute.slice_s").count > 0


def test_live_stats_and_metrics_flow_through():
    live = run_live(LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=12,
                               timeout_s=60.0))
    assert live.stats.total_work_units == TINY_NODES
    assert live.result.makespan > 0.0
    assert live.stats.per_process[0].busy_time > 0.0   # measured, not priced
    assert live.metrics.counter("steal.requests").value >= 0
    assert live.metrics.gauge("engine.makespan_s").value > 0.0
    # the run reports its own set-up: spawn -> last hello, shutdown -> reaped
    handshake = live.metrics.gauge("live.handshake_s").value
    reap = live.metrics.gauge("live.reap_s").value
    assert handshake > 0.0 and reap > 0.0
    assert handshake + live.result.makespan + reap <= live.wall_s
    # the workers' own units / quanta (the mean batch) ride the same path
    assert live.metrics.counter("compute.units").value == TINY_NODES
    quanta = live.metrics.counter("compute.quanta").value
    # a slice is one batch: a node and its child never share one, so the
    # deepest root-to-leaf path takes a slice per node, whatever the size
    assert quanta > TINY.max_depth
    # a reactor turn computes at most one slice
    assert quanta <= live.metrics.counter("reactor.turns").value
    # a plain run has no spool, so it publishes no spool instruments
    assert not [name for name in live.metrics.names()
                if name.startswith("spool.")]


def test_live_trace_merges_into_loadable_schema(tmp_path):
    run_dir = str(tmp_path / "run")
    live = run_live(LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=13,
                               timeout_s=60.0, trace=True, run_dir=run_dir))
    from repro.obs.export import load_trace
    from repro.sim.trace import FINISH, QUANTUM
    loaded = load_trace(live.trace_path)
    assert loaded.meta["live"] is True
    kinds = {s.kind for s in loaded.samples}
    assert QUANTUM in kinds and FINISH in kinds
    assert sum(s.value for s in loaded.samples
               if s.kind == QUANTUM) == TINY_NODES


# -- fault injection ---------------------------------------------------------

def test_default_run_dir_removed_after_clean_run():
    """A successful untraced run must not leak its tempdir (regression:
    every ``run_live`` call used to leave a ``repro-live-*`` directory of
    worker logs in $TMPDIR forever)."""
    live = run_live(LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=7,
                               timeout_s=60.0))
    assert live.result.total_units == TINY_NODES
    assert not os.path.exists(live.run_dir)


def test_explicit_run_dir_survives_clean_run(tmp_path):
    """Caller-supplied run dirs are the caller's to manage — cleanup only
    applies to the default tempdir."""
    run_dir = str(tmp_path / "run")
    live = run_live(LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=7,
                               timeout_s=60.0, run_dir=run_dir))
    assert live.result.total_units == TINY_NODES
    assert os.path.isdir(run_dir)
    assert live.run_dir == run_dir


def test_sigkill_mid_run_conserves_every_unit(tmp_path):
    # bin_small: the root clears bin_tiny in ~10 ms, and one run in five
    # the victim never saw 400 units of it
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_SMALL, seed=21,
                     timeout_s=90.0, fault_tolerance=True,
                     run_dir=str(tmp_path / "run"),
                     kills=({"pid": 2, "after_units": 400},))
    live = run_live(cfg)
    assert live.killed == (2,)
    assert live.result.crashes == 1
    assert live.conserved == SMALL_NODES         # exact, not approximate
    assert live.stats.per_process[2].crashes == 1
    assert 2 in live.spools                      # post-mortem state exists
    # every survivor terminated and reported
    for pid in (0, 1, 3):
        assert pid in live.reports
        assert live.reports[pid]["stats"]["finish_time"] > 0.0


def test_fault_mode_without_kills_is_exact():
    live = run_live(LiveConfig(protocol="BTD", n=4, app=UTS_TINY, seed=22,
                               timeout_s=90.0, fault_tolerance=True))
    assert live.result.total_units == TINY_NODES
    assert live.conserved == TINY_NODES
    # the spool publishes into the run's registry: it committed, and the
    # commit rule skipped the turns that changed nothing a commit explains
    commits = live.metrics.get("spool.commits").value
    assert commits > 0 and live.metrics.get("spool.skipped").value > 0
    assert live.metrics.get("spool.commit_s").count == commits
    assert live.metrics.get("spool.bytes").count == commits


def test_expect_conserved_fails_when_a_planned_fault_never_fired(capsys):
    """A kill that cannot land (the run is over long before the victim's
    spool shows that many units) must not let the chaos step pass on the
    identity alone."""
    from repro.experiments.live import live_main
    rc = live_main(["--preset", "bin_tiny", "--n", "2", "--seed", "3",
                    "--kill", "1@999999999u", "--expect-conserved",
                    "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "FAIL: planned kill of pid 1 never happened" in err
    assert "conservation violated" not in err    # the identity itself held


def test_kill_config_validation():
    from repro.sim.errors import SimConfigError
    with pytest.raises(SimConfigError):          # root is not killable
        LiveConfig(n=4, kills=({"pid": 0, "after_s": 0.1},),
                   fault_tolerance=True)
    with pytest.raises(SimConfigError):          # kills need fault tolerance
        LiveConfig(n=4, kills=({"pid": 1, "after_s": 0.1},))
    with pytest.raises(SimConfigError):          # exactly one trigger
        LiveConfig(n=4, fault_tolerance=True,
                   kills=({"pid": 1, "after_s": 0.1, "after_units": 5},))
    for kills in (
            # one victim, two triggers: only one kill could ever land
            ({"pid": 1, "after_s": 0.1}, {"pid": 1, "after_units": 5}),
            ({"pid": 1, "after_units": "5"},),   # would fail in the worker
            ({"pid": 1, "after_units": True},),
            ({"pid": 1, "after_units": 2.5},),
            ({"pid": 1, "after_units": -1},),
            ({"pid": 1, "after_s": -0.1},),
            ({"pid": 1, "after_s": "0.1"},)):
        with pytest.raises(SimConfigError):
            LiveConfig(n=4, fault_tolerance=True, kills=kills)
    LiveConfig(n=4, fault_tolerance=True,        # both edges of the range
               kills=({"pid": 1, "after_s": 0}, {"pid": 2, "after_units": 0}))


def test_join_times_must_follow_pid_order():
    """A joiner's pid is its fleet slot, filled in order, so a later pid
    may not join earlier; checked at construction, before any spawn."""
    from repro.sim.errors import SimConfigError
    with pytest.raises(SimConfigError, match="pid 5 joins at 0.02 s"):
        LiveConfig("BTD", n=4, fault_tolerance=True,
                   joins=({"pid": 4, "after_s": 0.08},
                          {"pid": 5, "after_s": 0.02}),
                   app={"kind": "uts", "preset": "bin_small"})
    cfg = LiveConfig("BTD", n=4, fault_tolerance=True,
                     joins=({"pid": 5, "after_s": 0.08},
                            {"pid": 4, "after_s": 0.02},
                            {"pid": 6, "after_s": 0.08}))
    assert cfg.slots == 7


# -- network partitions (transport-layer splits) -----------------------------

def test_live_partition_heal_conserves_every_unit(tmp_path):
    """A real split-then-heal: every worker's mesh drops the frames it
    would send across the cut for a wall-clock window. No node dies, so
    the run must finish with the full tree *processed* and the identity
    exact."""
    # the window must overlap the run: bin_large on 4 local workers takes
    # ~0.2 s of protocol time, so cut early and heal before the timeout
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_LARGE, seed=23,
                     timeout_s=90.0, fault_tolerance=True,
                     run_dir=str(tmp_path / "run"),
                     partitions=({"side": [2, 3],
                                  "start_s": 0.02, "end_s": 0.3},))
    live = run_live(cfg)
    assert live.killed == ()
    assert live.result.total_units == LARGE_NODES
    assert live.conserved == LARGE_NODES
    # frames actually headed across (and were eaten at) the cut
    assert live.metrics.counter("live.partition_drops").value > 0
    for pid in range(4):
        assert live.reports[pid]["stats"]["finish_time"] > 0.0


def test_sigkill_during_partition_conserves(tmp_path):
    """kill -9 on a partitioned worker: the spool identity must survive
    the composition of a split and a death inside it."""
    # termination waves cannot cross the cut, so a run still going when
    # it opens outlives the window — an after_s kill at 0.1 s therefore
    # lands *inside* the 0.02-0.5 s split, not before or after it
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_LARGE, seed=24,
                     timeout_s=90.0, fault_tolerance=True,
                     run_dir=str(tmp_path / "run"),
                     kills=({"pid": 3, "after_s": 0.1},),
                     partitions=({"side": [2, 3],
                                  "start_s": 0.02, "end_s": 0.5},))
    live = run_live(cfg)
    assert live.killed == (3,)
    assert live.result.crashes == 1
    assert live.conserved == LARGE_NODES         # exact, not approximate
    for pid in (0, 1, 2):
        assert live.reports[pid]["stats"]["finish_time"] > 0.0


def test_partition_config_validation():
    from repro.sim.errors import SimConfigError
    ok = {"side": [2, 3], "start_s": 0.1, "end_s": 0.5}
    with pytest.raises(SimConfigError):          # needs fault tolerance
        LiveConfig(n=4, partitions=(ok,))
    with pytest.raises(SimConfigError):          # empty side
        LiveConfig(n=4, fault_tolerance=True,
                   partitions=({"side": [], "start_s": 0.1, "end_s": 0.5},))
    with pytest.raises(SimConfigError):          # pid out of range
        LiveConfig(n=4, fault_tolerance=True,
                   partitions=({"side": [7], "start_s": 0.1, "end_s": 0.5},))
    with pytest.raises(SimConfigError):          # whole-fleet side: no cut
        LiveConfig(n=4, fault_tolerance=True,
                   partitions=({"side": [0, 1, 2, 3],
                                "start_s": 0.1, "end_s": 0.5},))
    with pytest.raises(SimConfigError):          # start >= end
        LiveConfig(n=4, fault_tolerance=True,
                   partitions=({"side": [2], "start_s": 0.5, "end_s": 0.1},))
    LiveConfig(n=4, fault_tolerance=True, partitions=(ok,))


# -- shutdown hygiene --------------------------------------------------------

def test_no_orphan_processes_after_clean_run():
    before = set(_children_of(os.getpid()))
    run_live(LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=31,
                        timeout_s=60.0))
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = set(_children_of(os.getpid())) - before
        if not leaked:
            return
        time.sleep(0.1)
    pytest.fail(f"leaked worker processes: {leaked}")


def test_sigint_drains_the_fleet(tmp_path):
    """A live run interrupted mid-flight exits 130 and leaves no workers."""
    script = (
        "import sys\n"
        "from repro.experiments.live import live_main\n"
        "sys.exit(live_main(['--n', '2', '--preset', 'bin_mini',\n"
        "                    '--seed', '1', '--quiet',\n"
        f"                   '--run-dir', {str(tmp_path / 'run')!r}]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        time.sleep(1.5)                          # let workers spawn
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    except Exception:
        proc.kill()
        raise
    assert proc.returncode in (130, 0), (proc.returncode, err.decode())
    # the supervisor's process group is gone: nothing to leak by design
    # (killpg already signalled workers too; the drain must not hang)


def test_worker_crash_without_fault_tolerance_fails_loudly(tmp_path):
    """A silent mid-run death in a non-fault run must raise, not hang."""
    from repro.runtime.supervisor import LiveRuntimeError
    cfg = LiveConfig(protocol="BTD", n=2,
                     app={"kind": "uts", "preset": "bin_mini"},
                     seed=41, timeout_s=60.0, run_dir=str(tmp_path / "run"))
    orig = run_live.__globals__["_spawn"]

    def sabotage(cfg_, endpoint, run_dir):
        workers = orig(cfg_, endpoint, run_dir)
        time.sleep(0.8)                          # let them handshake
        os.kill(workers[1].popen.pid, signal.SIGKILL)
        return workers

    run_live.__globals__["_spawn"] = sabotage
    try:
        with pytest.raises(LiveRuntimeError, match="died unexpectedly"):
            run_live(cfg)
    finally:
        run_live.__globals__["_spawn"] = orig


@pytest.mark.parametrize("fault_tolerance", [False, True],
                         ids=["plain", "ft"])
def test_worker_error_reaches_the_caller(tmp_path, fault_tolerance):
    """A spec that passes the shallow check but does not build: the
    worker's own error is in the message, not just its exit - also when
    fault tolerance would repair a death."""
    from repro.runtime.supervisor import LiveRuntimeError
    cfg = LiveConfig(protocol="BTD", n=2,
                     app={"kind": "uts", "preset": "no_such_preset"},
                     fault_tolerance=fault_tolerance,
                     timeout_s=60.0, run_dir=str(tmp_path / "run"))
    with pytest.raises(LiveRuntimeError, match="unknown UTS preset"):
        run_live(cfg)


# -- data plane + elastic membership -----------------------------------------

def test_p2p_clean_run_matches_sequential():
    """Direct worker<->worker frames explore exactly the same tree, and
    the mesh's per-link accounting reaches the result."""
    live = run_live(LiveConfig(protocol="BTD", n=4, app=UTS_TINY, seed=11,
                               timeout_s=90.0))
    assert live.result.total_units == TINY_NODES
    assert live.links                            # mesh-counted traffic
    assert all(src != dst for src, dst in live.links)
    sim_res, _ = run_instrumented(
        LiveConfig(protocol="BTD", n=4, app=UTS_TINY, seed=11).sim_config(),
        build_app(UTS_TINY)[0])
    assert live.result.total_units == sim_res.total_units


def test_p2p_sigkill_conserves_every_unit(tmp_path):
    # an edge on the victim's progress: on bin_tiny the root clears the
    # tree before the victim has seen 150 units as often as not
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_SMALL, seed=21,
                     fault_tolerance=True, timeout_s=90.0,
                     kills=({"pid": 2, "after_units": 150},),
                     run_dir=str(tmp_path / "run"))
    live = run_live(cfg)
    assert live.killed == (2,)
    assert live.conserved == SMALL_NODES         # exact, not approximate


def test_p2p_join_leave_and_kill_compose(tmp_path):
    """The full elastic-membership lifecycle in one run: a worker joins
    mid-run (grafted by the registry), another drains out gracefully, a
    third is SIGKILLed — and the conservation identity stays exact."""
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_LARGE, seed=23,
                     fault_tolerance=True, timeout_s=90.0,
                     joins=({"pid": 4, "after_s": 0.07},),
                     leaves=({"pid": 2, "after_s": 0.04},),
                     kills=({"pid": 3, "after_units": 100},),
                     run_dir=str(tmp_path / "run"))
    live = run_live(cfg)
    assert live.joined == (4,)
    assert live.left == (2,)
    assert live.killed == (3,)
    assert live.conserved == LARGE_NODES
    # the leaver is a survivor: its stats flowed into the report and its
    # row is not marked crashed
    assert live.stats.per_process[2].crashes == 0
    assert live.stats.per_process[3].crashes == 1


def test_p2p_join_during_partition_conserves(tmp_path):
    """A worker joining while the fleet is split must attach through the
    reachable side (or retry past the cut) without losing a unit —
    membership news rides the control plane, which partitions never cut."""
    cfg = LiveConfig(protocol="BTD", n=4, app=UTS_LARGE, seed=29,
                     fault_tolerance=True, timeout_s=90.0,
                     joins=({"pid": 4, "after_s": 0.06},),
                     partitions=({"side": [1, 3], "start_s": 0.03,
                                  "end_s": 0.4},),
                     run_dir=str(tmp_path / "run"))
    live = run_live(cfg)
    assert live.joined == (4,)
    assert live.conserved == LARGE_NODES
