"""Tests for statistics containers and aggregation."""

import pytest

from repro.sim.stats import ProcessStats, RunStats


def test_process_stats_idle_time():
    p = ProcessStats(pid=0, busy_time=0.3, handler_time=0.1)
    assert p.idle_time(horizon=1.0) == pytest.approx(0.6)
    assert p.idle_time(horizon=0.2) == 0.0  # clamped


def test_idle_time_stops_at_crash():
    """Regression: a crashed process must not accrue idle until the horizon.

    Its accountable window ends at crash_time — a node dead at t=0.5 of a
    2.0s run idled for 0.1s (0.5 - 0.4 active), not 1.6s.
    """
    dead = ProcessStats(pid=1, busy_time=0.3, handler_time=0.1,
                        crashes=1, crash_time=0.5)
    assert dead.idle_time(horizon=2.0) == pytest.approx(0.1)
    alive = ProcessStats(pid=2, busy_time=0.3, handler_time=0.1)
    assert alive.idle_time(horizon=2.0) == pytest.approx(1.6)
    # crash after the horizon: the horizon still wins
    late = ProcessStats(pid=3, busy_time=0.3, crash_time=5.0)
    assert late.idle_time(horizon=1.0) == pytest.approx(0.7)


def test_engine_stamps_crash_time():
    """A faulted run records when each victim died, bounding its idle."""
    from repro.apps.synthetic import SyntheticApplication
    from repro.experiments.runner import RunConfig, run_instrumented
    from repro.sim.faults import FaultPlan

    cfg = RunConfig(protocol="BTD", n=8, quantum=16, seed=11,
                    faults=FaultPlan(crashes=((3, 1e-3),)))
    _, stats = run_instrumented(cfg, SyntheticApplication(2000,
                                                          unit_cost=1e-5))
    victim = stats.per_process[3]
    assert victim.crashes == 1
    assert victim.crash_time == pytest.approx(1e-3)
    assert victim.crash_time < stats.makespan
    assert victim.idle_time(stats.makespan) <= victim.crash_time
    survivor = stats.per_process[0]
    assert survivor.crash_time == float("inf")


def test_runstats_create():
    rs = RunStats.create(4)
    assert rs.n == 4
    assert [p.pid for p in rs.per_process] == [0, 1, 2, 3]


def test_runstats_aggregates():
    rs = RunStats.create(3)
    for i, p in enumerate(rs.per_process):
        p.work_units = 10 * (i + 1)
        p.msgs_sent = i
        p.steals_attempted = 2
        p.steals_successful = 1
        p.busy_time = 0.5
    rs.makespan = 1.0
    assert rs.total_work_units == 60
    assert rs.total_msgs == 3
    assert rs.total_steals == 6
    assert rs.total_steals_ok == 3
    assert rs.total_busy == pytest.approx(1.5)
    assert rs.msgs_by_pid() == [0, 1, 2]


def test_empty_runstats_guards():
    rs = RunStats.create(0)
    assert rs.max_finish_time(default=1.5) == 1.5
    assert rs.msgs_by_pid() == []
    rs.seal()
    assert (rs.total_work_units, rs.total_busy) == (0, 0)


def test_seal_freezes_aggregates():
    """Aggregates are computed live during a run, then cached by seal()."""
    rs = RunStats.create(2)
    rs.per_process[0].work_units = 5
    assert rs.total_work_units == 5      # live before seal
    rs.per_process[1].work_units = 7
    assert rs.total_work_units == 12
    rs.seal()
    assert rs.total_work_units == 12
    assert rs.total_msgs == 0
    # post-seal mutation is invisible: the totals are frozen sums
    rs.per_process[0].work_units = 999
    rs.per_process[0].msgs_sent = 999
    assert rs.total_work_units == 12
    assert rs.total_msgs == 0


def test_seal_covers_all_five_totals():
    rs = RunStats.create(1)
    p = rs.per_process[0]
    p.work_units, p.msgs_sent, p.busy_time = 3, 4, 0.25
    p.steals_attempted, p.steals_successful = 6, 2
    rs.seal()
    assert (rs.total_work_units, rs.total_msgs, rs.total_steals,
            rs.total_steals_ok) == (3, 4, 6, 2)
    assert rs.total_busy == pytest.approx(0.25)


def test_simulator_seals_stats():
    """Engine runs hand back sealed stats."""
    from repro.sim import Simulator, SimProcess
    from repro.sim.network import uniform_network
    sim = Simulator(uniform_network(latency=1e-4, handler_cost=1e-6))
    sim.add_process(SimProcess(0))
    st = sim.run()
    assert st._aggregates is not None
