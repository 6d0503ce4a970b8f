"""Failure injection: random delays, adversarial shapes, extreme knobs.

Hypothesis drives random protocol/overlay/knob combinations through whole
simulations; the oracle is always the same — exact work conservation and
clean termination. This is the harness that historically catches
termination-detection races.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.experiments.runner import RunConfig, run_once
from repro.sim.errors import SimDeadlockError
from repro.sim.faults import FaultPlan
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams
# imported here, not inside a @given body: that module declares @given
# tests of its own, which Hypothesis refuses to see declared under a draw
from tests.test_fault_tolerance import run_faulted

MINI = PRESETS["bin_mini"].params
MINI_NODES = count_tree(MINI).nodes


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    proto=st.sampled_from(["TD", "TR", "BTD", "RWS"]),
    n=st.integers(min_value=1, max_value=24),
    dmax=st.integers(min_value=1, max_value=12),
    quantum=st.sampled_from([1, 3, 17, 256]),
    jitter=st.sampled_from([0.0, 1.0, 5.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_conservation_under_chaos(proto, n, dmax, quantum, jitter,
                                           seed):
    cfg = RunConfig(protocol=proto, n=n, dmax=dmax, quantum=quantum,
                    jitter=jitter, seed=seed)
    result = run_once(cfg, UTSApplication(MINI))
    assert result.total_units == MINI_NODES


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000),
       jitter=st.floats(min_value=0.0, max_value=10.0))
def test_property_bnb_protocols_agree_under_chaos(seed, jitter):
    from repro.apps.bnb_app import BnBApplication
    from repro.bnb.engine import solve_bruteforce
    from repro.bnb.taillard import scaled_instance
    inst = scaled_instance(1 + seed % 10, n_jobs=6, n_machines=5)
    opt, _ = solve_bruteforce(inst)
    for proto in ("BTD", "MW"):
        cfg = RunConfig(protocol=proto, n=9, dmax=3, quantum=8,
                        jitter=jitter, seed=seed)
        result = run_once(cfg, BnBApplication(inst))
        assert result.optimum == opt, (proto, seed, jitter)


def test_degenerate_overlays():
    """dmax=1 (a chain) and dmax=n (a star) both work."""
    for dmax in (1, 23):
        r = run_once(RunConfig(protocol="TD", n=24, dmax=dmax, seed=1),
                     UTSApplication(MINI))
        assert r.total_units == MINI_NODES


def test_tiny_quantum_everywhere():
    for proto in ("TD", "BTD", "RWS"):
        r = run_once(RunConfig(protocol=proto, n=6, dmax=2, quantum=1,
                               seed=2),
                     UTSApplication(MINI))
        assert r.total_units == MINI_NODES


def test_degenerate_tree_sizes():
    empty_ish = UTSParams(b0=1, q=0.01, m=2, root_seed=1)
    expected = count_tree(empty_ish).nodes
    for proto in ("TD", "BTD", "RWS"):
        r = run_once(RunConfig(protocol=proto, n=8, dmax=3, seed=3),
                     UTSApplication(empty_ish))
        assert r.total_units == expected


def test_far_more_workers_than_work():
    """127 workers, ~hundreds of nodes: most never get work, all stop."""
    r = run_once(RunConfig(protocol="BTD", n=127, dmax=3, seed=4),
                 UTSApplication(MINI))
    assert r.total_units == MINI_NODES


def test_synthetic_app_through_all_protocols():
    for proto in ("TD", "TR", "BTD", "RWS"):
        cfg = RunConfig(protocol=proto, n=11, dmax=3, quantum=32, seed=5)
        r = run_once(cfg, SyntheticApplication(3000, unit_cost=1e-5))
        assert r.total_units == 3000


def test_extreme_handler_cost():
    r = run_once(RunConfig(protocol="BTD", n=12, dmax=3, seed=6,
                           handler_cost=1e-3),
                 UTSApplication(MINI))
    assert r.total_units == MINI_NODES


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    proto=st.sampled_from(["TD", "TR", "BTD", "RWS"]),
    n=st.integers(min_value=2, max_value=16),
    loss=st.sampled_from([0.0, 0.05, 0.15]),
    dup=st.sampled_from([0.0, 0.1]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_conservation_under_lossy_links(proto, n, loss, dup, seed):
    """Loss/duplication chaos: the reliable channel keeps conservation exact."""
    plan = FaultPlan(loss=loss, dup=dup)
    cfg = RunConfig(protocol=proto, n=n, dmax=4, quantum=32, seed=seed,
                    faults=plan)
    result = run_once(cfg, UTSApplication(MINI))
    assert result.total_units == MINI_NODES


# derandomize: tier-1 must draw the same 25 plans every time — one known
# draw deadlocks TR (pinned below) and used to fail unrelated changes
# whenever Hypothesis happened on it.
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    proto=st.sampled_from(["TD", "TR", "BTD", "RWS"]),
    n=st.integers(min_value=4, max_value=16),
    crashes=st.integers(min_value=1, max_value=4),
    loss=st.sampled_from([0.0, 0.1]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_conservation_under_crash_chaos(proto, n, crashes, loss,
                                                 seed):
    """Crash chaos: the four-place accounting identity holds exactly.

    Uses the oracle of test_fault_tolerance — live units plus drained
    frozen/in-flight/dropped work must reproduce the sequential count.
    """
    crashes = min(crashes, n - 1, max(1, n // 4))
    plan = FaultPlan.sample(n, crashes=crashes, seed=seed,
                            window=(2e-4, 2e-3), loss=loss)
    total, _, _ = run_faulted(proto, n, plan, seed=seed,
                              app=UTSApplication(MINI))
    assert total == MINI_NODES


@pytest.mark.xfail(strict=True, raises=SimDeadlockError,
                   reason="open: TR's repair path deadlocks under this "
                          "crash plan (ROADMAP); flips the day it is fixed")
def test_tr_crash_plan_2361_conserves():
    """The one draw of the chaos property above known to fail, kept
    visible: processes 8 and 10 never finish (simulator only)."""
    plan = FaultPlan.sample(13, crashes=3, seed=2361, window=(2e-4, 2e-3),
                            loss=0.0)
    total, _, _ = run_faulted("TR", 13, plan, seed=2361,
                              app=UTSApplication(MINI))
    assert total == MINI_NODES


def test_uniform_bridge_policy_still_correct():
    from repro.core.oclb import OverlayWorker
    from repro.core.worker import WorkerConfig
    from repro.overlay.bridges import add_bridges
    from repro.overlay.tree import deterministic_tree
    from repro.sim import Simulator, grid5000
    overlay = add_bridges(deterministic_tree(16, 4), seed=7,
                          policy="uniform")
    sim = Simulator(grid5000(), seed=7)
    app = UTSApplication(MINI)
    ws = [sim.add_process(OverlayWorker(p, app, WorkerConfig(seed=7),
                                        overlay)) for p in range(16)]
    stats = sim.run()
    assert stats.total_work_units == MINI_NODES
    assert all(w.terminated for w in ws)
