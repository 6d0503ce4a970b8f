"""Tests for the activity tracing subsystem."""

import pytest

from repro.apps.uts_app import UTSApplication
from repro.experiments.runner import RunConfig, run_instrumented, run_once
from repro.sim.errors import SimConfigError
from repro.sim.trace import (FINISH, IDLE, MESSAGE, QUANTUM, Tracer,
                             render_profile)
from repro.uts.params import PRESETS

PRESET = PRESETS["bin_mini"].params


def traced_run(proto="BTD", n=8, **kw):
    tracer = Tracer()
    result = run_once(RunConfig(protocol=proto, n=n, dmax=3, quantum=16,
                                seed=4, **kw),
                      UTSApplication(PRESET), tracer=tracer)
    return tracer, result


def test_quantum_samples_sum_to_total_units():
    tracer, result = traced_run()
    total = sum(s.value for s in tracer.of_kind(QUANTUM))
    assert total == result.total_units


def test_every_worker_finishes_once():
    tracer, result = traced_run()
    finishes = tracer.of_kind(FINISH)
    assert len(finishes) == result.n
    assert {s.pid for s in finishes} == set(range(result.n))


def test_utilization_profile_bounds():
    tracer, result = traced_run()
    app = UTSApplication(PRESET)
    profile = tracer.utilization_profile(result.makespan, app.unit_cost,
                                         result.n, buckets=8)
    assert len(profile) == 8
    assert all(0.0 <= frac <= 1.001 for _, frac in profile)
    assert profile[-1][0] == pytest.approx(result.makespan)
    # total busy time recovered from the profile equals units x cost
    width = result.makespan / 8
    recovered = sum(frac for _, frac in profile) * width * result.n
    assert recovered == pytest.approx(result.total_units * app.unit_cost,
                                      rel=1e-6)


def test_work_completed_by():
    tracer, result = traced_run()
    t_half = tracer.work_completed_by(0.5, result.total_units)
    t_all = tracer.work_completed_by(1.0, result.total_units)
    assert 0 < t_half <= t_all <= result.work_done_time + 1e-9
    with pytest.raises(SimConfigError):
        tracer.work_completed_by(0.0, 10)


def test_per_worker_units_match_stats():
    """Each worker's quantum samples add up to its own stats row."""
    tracer = Tracer()
    _, stats = run_instrumented(
        RunConfig(protocol="BTD", n=8, dmax=3, quantum=16, seed=4),
        UTSApplication(PRESET), tracer=tracer)
    per = [0] * stats.n
    for s in tracer.of_kind(QUANTUM):
        per[s.pid] += int(s.value)
    assert per == [p.work_units for p in stats.per_process]


def test_idle_episodes_and_messages_recorded():
    tracer, _ = traced_run()
    assert len(tracer.of_kind(IDLE)) > 0
    assert len(tracer.of_kind(MESSAGE)) > 0


def test_render_profile():
    out = render_profile([(0.001, 0.5), (0.002, 1.0)])
    assert "50%" in out and "100%" in out
    assert out.count("\n") == 2


def test_tracer_disable():
    tracer = Tracer()
    tracer.enabled = False
    tracer.record(0.0, 0, QUANTUM, 5)
    assert tracer.samples == []


def test_validation():
    tracer = Tracer()
    with pytest.raises(SimConfigError):
        tracer.utilization_profile(0.0, 1e-6, 4)


def test_untraced_run_has_no_overhead_hooks():
    result = run_once(RunConfig(protocol="TD", n=4, dmax=2, seed=1),
                      UTSApplication(PRESET))
    assert result.total_units > 0  # just exercises the tracer-less path
