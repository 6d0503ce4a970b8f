"""Quantum fusion (macro events): fused runs must match unfused runs.

The macro-event fast path replaces the per-quantum event train of a busy
worker with one engine event per fused block, gated on a per-worker proof
that nothing can arrive before the block completes.  These tests pin the
equivalence down at every level:

* result identity (makespan, units, messages, steals, per-process
  counters) for every protocol, clean and faulted;
* *schedule* identity: the full trace sample sets agree (compared in
  time order — a fused worker appends interior samples eagerly, so list
  order may interleave differently across workers);
* the events-equivalent accounting: a fused run reports exactly the
  event count its unfused twin actually fires;
* the gates: B&B (shared state) never fuses, bounded runs
  (``max_events``) never fuse.

Identity is exact for every configuration, including fused boundaries
that tie with a foreign event at the identical float time: every engine
orders heap entries by one key, ``(time, origin pid, per-origin
ordinal)``, and a fused block takes one ordinal per quantum, its event
the last — the key of the unfused engine's last occupy event
(repro.sim.events; docs/simulation.md, "One event order").
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.experiments.runner import RunConfig, run_instrumented
from repro.sim.faults import FaultPlan
from repro.sim.network import uniform_network
from repro.sim.trace import Tracer
from repro.uts.params import PRESETS

UTS_PROTOCOLS = ("TD", "BTD", "RWS", "LIFELINE")


def run_pair(cfg: RunConfig, make_app, trace: bool = True):
    """(fused, unfused) ``(result, stats, tracer)`` triples for one config."""
    out = []
    for fuse in (True, False):
        tracer = Tracer() if trace else None
        res, stats = run_instrumented(dataclasses.replace(cfg, fuse=fuse),
                                      make_app(), tracer=tracer)
        out.append((res, stats, tracer))
    return out


def sorted_samples(tracer: Tracer):
    return sorted((s.time, s.pid, s.kind, s.value) for s in tracer.samples)


def assert_identical(fused, unfused):
    fr, fs, ft = fused
    ur, us, ut = unfused
    assert fr.makespan == ur.makespan
    assert fr.work_done_time == ur.work_done_time
    assert fr.total_units == ur.total_units
    assert fr.total_msgs == ur.total_msgs
    assert fr.total_steals == ur.total_steals
    assert fr.msgs_by_pid == ur.msgs_by_pid
    for f_st, u_st in zip(fs.per_process, us.per_process):
        assert f_st.work_units == u_st.work_units
        assert f_st.busy_time == u_st.busy_time
        assert f_st.msgs_sent == u_st.msgs_sent
        assert f_st.msgs_received == u_st.msgs_received
        assert f_st.steals_attempted == u_st.steals_attempted
        assert f_st.finish_time == u_st.finish_time
    if ft is not None and ut is not None:
        assert sorted_samples(ft) == sorted_samples(ut)


@pytest.mark.parametrize("proto", UTS_PROTOCOLS)
def test_fused_identity_uts(proto):
    """The golden UTS configs: bit-identical, with fusion engaged."""
    preset = PRESETS["bin_tiny"]
    cfg = RunConfig(protocol=proto, n=24, dmax=4, quantum=64, seed=123)
    fused, unfused = run_pair(cfg, lambda: UTSApplication(preset.params))
    assert_identical(fused, unfused)
    assert fused[0].macro_events > 0, "fusion never engaged"
    assert fused[0].fused_quanta > fused[0].macro_events
    assert fused[0].events < unfused[0].events
    assert unfused[0].macro_events == 0


@pytest.mark.parametrize("proto", ("TD", "BTD", "RWS"))
def test_fused_identity_faulted(proto):
    """Crashes, loss and duplication inside fused windows stay exact, and
    so does a gray slowdown: the slowed pid never fuses, the rest do. Its
    pid is one whose slowed quanta would fuse if the engine let them, so
    fused == unfused fails without that opt-out."""
    preset = PRESETS["bin_tiny"]
    slowed = {"TD": 21, "BTD": 9, "RWS": 13}[proto]
    plans = (FaultPlan(crashes=((5, 0.002), (11, 0.004)), loss=0.02,
                       dup=0.01),
             FaultPlan(slowdowns=((slowed, 0.0, 6e-3, 6.0),)))
    for plan in plans:
        cfg = RunConfig(protocol=proto, n=24, dmax=4, quantum=64, seed=123,
                        faults=plan)
        fused, unfused = run_pair(cfg, lambda: UTSApplication(preset.params))
        assert_identical(fused, unfused)
        assert fused[0].crashes == len(plan.crashes)
        assert fused[0].macro_events > 0


def test_fused_identity_synthetic_fleet_net():
    """The scale sweep's flat-network regime, shrunk to test size."""
    cfg = RunConfig(protocol="TD", n=64, quantum=16, seed=7,
                    network=uniform_network(cores=4096, latency=1e-3))
    fused, unfused = run_pair(
        cfg, lambda: SyntheticApplication(64 * 500, unit_cost=1e-6))
    assert_identical(fused, unfused)
    assert fused[0].macro_events > 0


def test_events_equivalent_accounting():
    """events_equivalent of a fused run == events of its unfused twin."""
    cfg = RunConfig(protocol="TD", n=64, quantum=16, seed=7,
                    network=uniform_network(cores=4096, latency=1e-3))
    fused, unfused = run_pair(
        cfg, lambda: SyntheticApplication(64 * 500, unit_cost=1e-6),
        trace=False)
    assert fused[0].events_equivalent == unfused[0].events
    assert unfused[0].events_equivalent == unfused[0].events
    ratio = ((fused[1].fused_quanta - fused[1].macro_events)
             / fused[1].events_equivalent)
    assert 0.0 < ratio < 1.0
    assert ratio == pytest.approx(fused[1].fused_ratio)


def test_bnb_never_fuses():
    """Shared bound state (gossip at boundaries) disables fusion."""
    from repro.apps.bnb_app import BnBApplication
    from repro.bnb.taillard import scaled_instance

    inst = scaled_instance(2, n_jobs=8, n_machines=8)
    cfg = RunConfig(protocol="BTD", n=12, quantum=16, seed=123, dmax=3)
    fused, unfused = run_pair(cfg, lambda: BnBApplication(inst,
                                                          warm_start=True),
                              trace=False)
    assert fused[0].macro_events == 0 and fused[0].fused_quanta == 0
    assert fused[0].makespan == unfused[0].makespan
    assert fused[0].events == unfused[0].events
    assert fused[0].optimum == unfused[0].optimum


def test_bounded_runs_never_fuse():
    """max_events forbids fusion (a macro event would overshoot the cap)."""
    preset = PRESETS["bin_tiny"]
    cfg = RunConfig(protocol="TD", n=24, dmax=4, quantum=64, seed=123,
                    max_events=500)
    res, _ = run_instrumented(cfg, UTSApplication(preset.params))
    assert res.macro_events == 0 and res.fused_quanta == 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_fused_schedule_identical(seed):
    """Across seeds: identical event-visible schedules, fused vs not."""
    preset = PRESETS["bin_mini"]
    cfg = RunConfig(protocol="TD", n=16, dmax=4, quantum=16, seed=seed)
    fused, unfused = run_pair(cfg, lambda: UTSApplication(preset.params))
    assert_identical(fused, unfused)
