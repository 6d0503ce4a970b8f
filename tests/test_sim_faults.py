"""Simulator-level fault injection: plans, determinism, zero overhead.

Protocol-level recovery (splices, work conservation under crashes) lives
in test_fault_tolerance.py; this file pins down the *engine* contract —
FaultPlan validation, null-plan normalisation, bit-reproducibility of
faulted runs, stat accounting, and the debug/deadlock tooling the fault
work leans on.
"""

import pytest

from repro.apps.uts_app import UTSApplication
from repro.experiments.runner import RunConfig, run_once
from repro.sim import Simulator, grid5000
from repro.sim.errors import SimConfigError, SimDeadlockError
from repro.sim.faults import FaultPlan
from repro.sim.process import SimProcess
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree

MINI = PRESETS["bin_mini"].params
MINI_NODES = count_tree(MINI).nodes


# -- FaultPlan validation ----------------------------------------------------

def test_plan_rejects_root_crash():
    with pytest.raises(SimConfigError, match="root"):
        FaultPlan(crashes=((0, 1e-3),))


def test_plan_rejects_duplicate_crash():
    with pytest.raises(SimConfigError, match="more than once"):
        FaultPlan(crashes=((3, 1e-3), (3, 2e-3)))


def test_plan_rejects_bad_probabilities():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(SimConfigError):
            FaultPlan(loss=bad)
        with pytest.raises(SimConfigError):
            FaultPlan(dup=bad)


def test_plan_rejects_bad_crash_time():
    with pytest.raises(SimConfigError, match="crash time"):
        FaultPlan(crashes=((1, 0.0),))


def test_plan_rejects_bad_blackout_window():
    with pytest.raises(SimConfigError, match="blackout"):
        FaultPlan(blackouts=((None, None, 2e-3, 1e-3),))


def test_plan_rejects_overlapping_blackouts():
    with pytest.raises(SimConfigError, match="overlap"):
        FaultPlan(blackouts=((1, 2, 1e-3, 3e-3), (1, 2, 2e-3, 4e-3)))
    with pytest.raises(SimConfigError, match="overlap"):
        # wildcard windows collide on the same (None, None) link key too
        FaultPlan(blackouts=((None, None, 0.0, 5e-3),
                             (None, None, 4e-3, 6e-3)))
    # adjacent windows are fine (half-open [start, end) intervals)...
    FaultPlan(blackouts=((1, 2, 1e-3, 2e-3), (1, 2, 2e-3, 3e-3)))
    # ...and so is the same window on *different* link keys
    FaultPlan(blackouts=((1, 2, 1e-3, 3e-3), (2, 1, 1e-3, 3e-3)))


def test_plan_rejects_bad_partition_sides():
    with pytest.raises(SimConfigError, match="nonempty"):
        FaultPlan(partitions=(((), 1e-3, 2e-3),))
    with pytest.raises(SimConfigError, match="more than once"):
        FaultPlan(partitions=(((1, 1, 2), 1e-3, 2e-3),))
    with pytest.raises(SimConfigError, match=">= 0"):
        FaultPlan(partitions=(((-1, 2), 1e-3, 2e-3),))
    with pytest.raises(SimConfigError, match="start < end"):
        FaultPlan(partitions=(((1, 2), 2e-3, 1e-3),))


def test_plan_rejects_bad_gray_failures():
    with pytest.raises(SimConfigError, match="factor must be >= 1"):
        FaultPlan(slowdowns=((1, 0.0, 1e-3, 0.5),))
    with pytest.raises(SimConfigError, match="start < end"):
        FaultPlan(slowdowns=((1, 2e-3, 1e-3, 2.0),))
    with pytest.raises(SimConfigError, match="delay_factor"):
        FaultPlan(gray_links=((None, 1, 0.0, 1e-3, 0.5, 0.0),))
    with pytest.raises(SimConfigError, match="loss"):
        FaultPlan(gray_links=((None, 1, 0.0, 1e-3, 2.0, 1.0),))


def test_fleet_validation_rejects_improper_splits():
    """validate_fleet needs the actual n: a side that covers the whole
    fleet (no cut) or names unknown pids only shows up at run start."""
    from repro.sim.faults import FaultController
    plan = FaultPlan(partitions=(((0, 1, 2, 3), 1e-3, 2e-3),))
    FaultController(plan, seed=0).validate_fleet(8)      # proper split
    with pytest.raises(SimConfigError, match="whole"):
        FaultController(plan, seed=0).validate_fleet(4)
    with pytest.raises(SimConfigError, match="unknown"):
        FaultController(FaultPlan(partitions=(((9,), 1e-3, 2e-3),)),
                        seed=0).validate_fleet(8)
    with pytest.raises(SimConfigError, match="unknown"):
        FaultController(FaultPlan(slowdowns=((9, 0.0, 1e-3, 2.0),)),
                        seed=0).validate_fleet(8)


def test_null_plan_covers_new_fault_kinds():
    assert FaultPlan().is_null()
    assert not FaultPlan(partitions=(((1,), 1e-3, 2e-3),)).is_null()
    assert not FaultPlan(slowdowns=((1, 0.0, 1e-3, 2.0),)).is_null()
    assert not FaultPlan(
        gray_links=((None, 1, 0.0, 1e-3, 2.0, 0.1),)).is_null()


def test_sample_is_deterministic_and_bounded():
    a = FaultPlan.sample(16, crashes=4, seed=9)
    b = FaultPlan.sample(16, crashes=4, seed=9)
    assert a == b
    assert len(a.crashes) == 4
    assert all(1 <= pid < 16 for pid, _ in a.crashes)
    with pytest.raises(SimConfigError, match="immortal"):
        FaultPlan.sample(4, crashes=4, seed=0)


def test_runconfig_rejects_out_of_range_crash():
    with pytest.raises(SimConfigError):
        RunConfig(protocol="TD", n=4,
                  faults=FaultPlan(crashes=((7, 1e-3),)))


def test_runconfig_gates_unhardened_protocols():
    plan = FaultPlan(loss=0.1)
    for proto in ("MW", "AHMW", "LIFELINE"):
        with pytest.raises(SimConfigError, match="fault injection"):
            RunConfig(protocol=proto, n=8, faults=plan)
    # a *null* plan is fine anywhere: it normalises to no faults at all
    RunConfig(protocol="MW", n=8, faults=FaultPlan())


# -- null-plan normalisation and zero drift ----------------------------------

def test_null_plan_normalises_away():
    sim = Simulator(grid5000(), seed=0, faults=FaultPlan())
    assert sim.faults is None
    assert Simulator(grid5000(), seed=0, faults=None).faults is None
    assert Simulator(grid5000(), seed=0,
                     faults=FaultPlan(loss=0.1)).faults is not None


def test_null_plan_zero_drift():
    """faults=None and a null FaultPlan produce bit-identical runs."""
    def go(plan):
        cfg = RunConfig(protocol="BTD", n=10, dmax=3, seed=11, faults=plan)
        return run_once(cfg, UTSApplication(MINI))

    clean, null = go(None), go(FaultPlan())
    assert clean.makespan == null.makespan
    assert clean.total_msgs == null.total_msgs
    assert clean.total_units == null.total_units == MINI_NODES
    assert null.msgs_lost == null.retransmits == null.repairs == 0


def test_faulted_runs_are_deterministic():
    plan = FaultPlan.sample(12, crashes=3, seed=21, loss=0.1, dup=0.05,
                            window=(2e-4, 2e-3))

    def go():
        cfg = RunConfig(protocol="BTD", n=12, dmax=3, seed=5, faults=plan)
        return run_once(cfg, UTSApplication(MINI))

    a, b = go(), go()
    assert (a.makespan, a.total_msgs, a.total_units) == \
           (b.makespan, b.total_msgs, b.total_units)
    assert (a.msgs_lost, a.msgs_duplicated, a.retransmits,
            a.crashes, a.repairs) == \
           (b.msgs_lost, b.msgs_duplicated, b.retransmits,
            b.crashes, b.repairs)


# -- stat accounting ---------------------------------------------------------

def test_loss_is_counted_and_repaired():
    cfg = RunConfig(protocol="TD", n=8, dmax=3, seed=3,
                    faults=FaultPlan(loss=0.1))
    r = run_once(cfg, UTSApplication(MINI))
    assert r.total_units == MINI_NODES
    assert r.msgs_lost > 0
    assert r.retransmits > 0


def test_duplicates_are_counted_and_absorbed():
    cfg = RunConfig(protocol="TD", n=8, dmax=3, seed=4,
                    faults=FaultPlan(dup=0.15))
    r = run_once(cfg, UTSApplication(MINI))
    assert r.total_units == MINI_NODES
    assert r.msgs_duplicated > 0


def test_blackout_drops_messages():
    plan = FaultPlan(blackouts=((None, None, 1e-4, 6e-4),))
    cfg = RunConfig(protocol="TD", n=8, dmax=3, seed=5, faults=plan)
    r = run_once(cfg, UTSApplication(MINI))
    assert r.total_units == MINI_NODES
    assert r.msgs_lost > 0


def test_partition_drops_are_counted_and_heal():
    """Cross-cut frames count as lost; the heal restores every unit."""
    plan = FaultPlan(partitions=(((4, 5, 6, 7), 1e-3, 4e-3),))
    cfg = RunConfig(protocol="TD", n=8, dmax=3, seed=5, faults=plan)
    r = run_once(cfg, UTSApplication(MINI))
    assert r.total_units == MINI_NODES
    assert r.msgs_lost > 0


def test_gray_runs_are_deterministic():
    """Gray-link keyed drops and slowdown inflation reproduce exactly."""
    plan = FaultPlan(slowdowns=((4, 0.0, 8e-3, 8.0),),
                     gray_links=((None, 4, 0.0, 8e-3, 4.0, 0.5),
                                 (4, None, 0.0, 8e-3, 4.0, 0.5)))

    def go():
        cfg = RunConfig(protocol="BTD", n=8, dmax=3, seed=6, faults=plan)
        return run_once(cfg, UTSApplication(MINI))

    a, b = go(), go()
    assert a.total_units == b.total_units == MINI_NODES
    assert (a.makespan, a.total_msgs, a.msgs_lost, a.retransmits) == \
           (b.makespan, b.total_msgs, b.msgs_lost, b.retransmits)
    assert a.msgs_lost > 0                   # the flaky links actually drop


def test_crash_is_counted():
    plan = FaultPlan.sample(12, crashes=3, seed=31, window=(2e-4, 2e-3))
    cfg = RunConfig(protocol="BTD", n=12, dmax=3, seed=6, faults=plan)
    r = run_once(cfg, UTSApplication(MINI))
    assert r.crashes == 3
    assert r.total_units <= MINI_NODES


# -- satellite: re-placement determinism -------------------------------------

def test_replace_resets_jitter_stream():
    """Re-placing a NetworkModel reproduces a fresh model's jitter draws.

    One NetworkModel instance is reused across grid cells; if place() only
    created the jitter stream on first use, the second cell's delays would
    continue the first cell's sequence and diverge from a fresh run.
    """
    def delays(net):
        net.place(8, seed=13)
        return [net.delivery_delay(1, 2, 100) for _ in range(50)]

    reused = grid5000(jitter=2.0)
    first = delays(reused)
    second = delays(reused)          # re-place the same instance
    fresh = delays(grid5000(jitter=2.0))
    assert first == second == fresh


# -- satellite: deadlock snapshots under debug=True --------------------------

class _Stuck(SimProcess):
    """Never finishes; schedules one no-op timer so the run isn't empty."""

    def start(self):
        self.call_at(1e-3, lambda: None, tag="stuck-timer")

    def finished(self):
        return False


def test_deadlock_error_names_stuck_process():
    sim = Simulator(grid5000(), seed=0, debug=True)
    sim.add_process(_Stuck(0))
    with pytest.raises(SimDeadlockError) as err:
        sim.run()
    msg = str(err.value)
    assert "1 unfinished" in msg and "[0]" in msg
    # debug mode: the hint to enable it must NOT appear
    assert "debug=True" not in msg


def test_deadlock_error_hints_at_debug_mode():
    sim = Simulator(grid5000(), seed=0)          # debug off
    sim.add_process(_Stuck(0))
    with pytest.raises(SimDeadlockError, match="debug=True"):
        sim.run()


def test_debug_tags_appear_in_snapshot():
    """debug=True tags deliveries/timers so snapshot_tags() is readable."""
    sim = Simulator(grid5000(), seed=0, debug=True)
    sim.add_process(_Stuck(0))
    sim.network.place(1, seed=0)
    sim.processes[0].start()
    tags = [tag for _, tag in sim.queue.snapshot_tags()]
    assert "stuck-timer" in tags
