"""Golden regression values for canonical runs.

The simulator is bit-deterministic, so these exact numbers must hold on any
machine. A failure here means the *protocol or cost model changed* — which
may be intentional, but must be a conscious decision: re-measure and update
the constants together with EXPERIMENTS.md.
"""

import pytest

from repro.apps.bnb_app import BnBApplication
from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.bnb.taillard import scaled_instance
from repro.experiments.runner import RunConfig, run_instrumented, run_once
from repro.experiments.scale import fleet_network, fleet_pacing
from repro.uts.params import PRESETS

GOLDEN_UTS = {
    # protocol -> (makespan, total_msgs, total_steals)
    "TD": (0.009430575999999984, 720, 291),
    "BTD": (0.008720683999999958, 1699, 702),
    "RWS": (0.00832897999999999, 1581, 624),
    "LIFELINE": (0.008115297999999981, 1188, 472),
}

GOLDEN_BNB = {
    # protocol -> (makespan, total_units, optimum)
    "BTD": (0.02552038399999998, 422, 712),
    "MW": (0.015330567999999989, 760, 712),
    "AHMW": (0.047580488000000046, 242, 712),
}

GOLDEN_MSG = {
    # protocol -> (events_fired, events_equivalent, msgs, steals, makespan)
    "BTD": (7022, 13053, 3149, 1198, 0.22156368800000054),
    "TD": (2394, 8582, 1042, 224, 0.18128052800000033),
}


@pytest.mark.parametrize("proto", sorted(GOLDEN_UTS))
def test_golden_uts(proto):
    preset = PRESETS["bin_tiny"]
    r = run_once(RunConfig(protocol=proto, n=24, dmax=4, quantum=64,
                           seed=123),
                 UTSApplication(preset.params))
    makespan, msgs, steals = GOLDEN_UTS[proto]
    assert r.total_units == preset.nodes
    assert r.makespan == pytest.approx(makespan, abs=1e-12)
    assert r.total_msgs == msgs
    assert r.total_steals == steals


@pytest.mark.parametrize("proto", sorted(GOLDEN_BNB))
def test_golden_bnb(proto):
    inst = scaled_instance(2, n_jobs=8, n_machines=8)
    r = run_once(RunConfig(protocol=proto, n=12, quantum=16, seed=123,
                           dmax=3),
                 BnBApplication(inst, warm_start=True))
    makespan, units, optimum = GOLDEN_BNB[proto]
    assert r.optimum == optimum
    assert r.total_units == units
    assert r.makespan == pytest.approx(makespan, abs=1e-12)


@pytest.mark.parametrize("proto", sorted(GOLDEN_MSG))
def test_golden_message_bound(proto):
    """The message-bound cell of the end-to-end benchmark at smoke size:
    synthetic work, 1,000 units a node, n=100 on the 10 ms fleet network
    with fleet pacing — the withdraw path and the idle search carry it."""
    n, latency = 100, 1e-2
    oclb, ack_timeout = fleet_pacing(latency)
    _, stats = run_instrumented(
        RunConfig(proto, n=n, quantum=16, seed=42378,
                  network=fleet_network(n, latency), oclb=oclb,
                  ack_timeout=ack_timeout),
        SyntheticApplication(1000 * n, unit_cost=1e-6))
    fired, equivalent, msgs, steals, makespan = GOLDEN_MSG[proto]
    assert stats.total_work_units == 1000 * n
    assert stats.events_fired == fired
    assert stats.events_equivalent == equivalent
    assert stats.total_msgs == msgs
    assert stats.total_steals == steals
    assert stats.makespan == pytest.approx(makespan, abs=1e-12)
