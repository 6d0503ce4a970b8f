"""Circuit breaker and backoff clamp in the reliable channel.

The breaker is a *routing* device, not a failure detector: an unreachable
(partitioned or gray) peer is parked and routed around, then probed with
heartbeat PINGs until it answers — nothing is abandoned, recovered or
spliced, and the dead-set termination waves never count a suspect as
dead. These tests pin the state machine (closed -> open -> half-open ->
closed), the park/release bookkeeping, the backoff clamp that bounds the
probe interval, and the suspicion-resolves-into-death path.
"""

import pytest

from repro.apps.uts_app import UTSApplication
from repro.core.reliable import B_CLOSED, B_OPEN, ReliableChannel
from repro.experiments.runner import RunConfig, build_workers
from repro.sim import Simulator, grid5000
from repro.sim.events import ENGINE, event_key
from repro.sim.faults import FaultPlan
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree

from test_fault_tolerance import conserved_units

TINY = PRESETS["bin_tiny"].params
TINY_NODES = count_tree(TINY).nodes

#: Tight channel pacing so the breaker ladder trips well inside the short
#: fault windows bin_tiny runs allow (~13 ms makespan at n=12).
PACING = {"ack_timeout": 5e-4, "breaker_threshold": 3, "quantum": 16}

#: A long mid-run split: half the fleet unreachable for 7 ms, forcing
#: breakers open on both sides before the heal.
def _partition_plan(n, start=1e-3, end=8e-3):
    side = tuple(range(n // 2, n))
    return FaultPlan(partitions=((side, start, end),))


def _run(proto, n, plan, seed=0, probe=None, **cfg_kwargs):
    """One faulted run; optionally invoke ``probe(sim, workers)`` at
    virtual times given by ``probe = (times, fn)``."""
    app = UTSApplication(TINY)
    cfg = RunConfig(protocol=proto, n=n, dmax=3, seed=seed, faults=plan,
                    **cfg_kwargs)
    sim = Simulator(network=grid5000(), seed=seed, faults=plan)
    workers = build_workers(sim, cfg, app)
    if probe is not None:
        times, fn = probe
        for i, t in enumerate(times):
            sim.queue.push(t, event_key(ENGINE, n + i),
                           lambda: fn(sim, workers), tag="test-probe")
    stats = sim.run()
    assert all(w.terminated for w in workers if not w._crashed)
    return conserved_units(sim, workers, app, stats), stats, workers


# -- satellite: the backoff clamp --------------------------------------------

class _StubSim:
    metrics = None


class _StubHost:
    sim = _StubSim()


def test_default_cap_equals_legacy_ceiling():
    """With no max_backoff the ladder tops out at timeout * 2^retries —
    exactly the pre-clamp behaviour, so old configs are unchanged."""
    ch = ReliableChannel(_StubHost(), timeout=1e-3, retries=5)
    assert ch.max_backoff == 1e-3 * 32
    assert [ch._backoff(k) for k in range(8)] == \
        [1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 32e-3, 32e-3, 32e-3]


def test_max_backoff_clamps_the_ladder():
    ch = ReliableChannel(_StubHost(), timeout=1e-3, retries=5,
                         max_backoff=4e-3)
    assert [ch._backoff(k) for k in range(6)] == \
        [1e-3, 2e-3, 4e-3, 4e-3, 4e-3, 4e-3]


def test_tight_cap_bounds_post_blackout_silence():
    """A long blackout drives attempts deep into the ladder; a tight cap
    must still finish the run (retries keep coming at the cap rate)."""
    plan = FaultPlan(blackouts=((None, None, 5e-4, 5e-3),))
    total, stats, _ = _run("TD", 8, plan, seed=3, ack_timeout=5e-4,
                           ack_max_backoff=1e-3, breaker_threshold=0)
    assert total == TINY_NODES
    assert stats.fault_totals()[2] > 0       # retransmits happened


# -- the breaker state machine -----------------------------------------------

@pytest.mark.parametrize("proto", ["TD", "BTD", "RWS"])
def test_breaker_trips_and_closes_across_partition(proto):
    """A long split trips breakers; the heal closes every one of them and
    the run still conserves exactly."""
    n = 16
    snaps = []

    def sample(sim, workers):
        snaps.append([(w.pid, sorted(w.suspect),
                       sorted(w._reliable.suspected_peers()))
                      for w in workers
                      if w._reliable is not None and w.suspect])

    # trips cluster differently per protocol (TD stragglers only trip
    # their ladder *after* the heal), so sample densely across both the
    # window and the post-heal probing phase
    times = tuple(t * 5e-4 for t in range(6, 25))
    total, stats, workers = _run(
        proto, n, _partition_plan(n), seed=1,
        probe=(times, sample), **PACING)
    assert total == TINY_NODES
    assert stats.total_breaker_opens() > 0
    # at some sampled instant, somebody was routing around a peer — and
    # the host's suspect set agreed with the channel's breaker view
    assert any(snap for snap in snaps)
    for snap in snaps:
        for _, suspects, breaker_view in snap:
            assert suspects == breaker_view
    # every suspicion healed: breakers closed, suspect sets empty
    for w in workers:
        assert not w.suspect
        ch = w._reliable
        assert not ch.suspected_peers()
        for pid in range(n):
            assert ch.breaker_state(pid) == B_CLOSED
        assert not ch.has_pending_work()      # no parked WORK left behind


def test_park_and_release_bookkeeping():
    """While open, transfers to the peer are parked (timers cancelled,
    still pending); the heal releases them with a fresh ladder."""
    n = 16
    seen = []

    def sample(sim, workers):
        for w in workers:
            ch = w._reliable
            for pid in list(ch.suspected_peers()):
                parked = [xf for xf in ch.pending_to(pid) if xf.parked]
                seen.append((w.pid, pid, len(parked),
                             [xf.timer is None for xf in parked]))

    total, _, workers = _run("BTD", n, _partition_plan(n), seed=1,
                             probe=((7e-3,), sample), **PACING)
    assert total == TINY_NODES
    # at least one open breaker had parked transfers with dead timers
    assert any(count > 0 and all(dead) for _, _, count, dead in seen)
    for w in workers:                         # ...and all were released
        assert not w._reliable._pending or all(
            xf.done for xf in w._reliable._pending.values())


def test_breaker_snapshot_reports_spans():
    n = 16
    total, _, workers = _run("BTD", n, _partition_plan(n), seed=2, **PACING)
    assert total == TINY_NODES
    snaps = [w._reliable.breaker_snapshot() for w in workers]
    rows = [row for snap in snaps for row in snap.values()]
    assert rows, "no breaker ever tripped"
    for row in rows:
        assert row["state"] == "closed"       # everything healed
        assert row["opens"] >= 1
        assert row["open_s"] > 0.0
    # somewhere, half-open probing happened (a breaker that trips right
    # at the heal may close off a late data ack before its first probe)
    assert sum(row["probes"] for row in rows) >= 1


def test_threshold_zero_disables_breaking():
    n = 16
    total, stats, workers = _run("BTD", n, _partition_plan(n), seed=5,
                                 ack_timeout=5e-4, breaker_threshold=0)
    assert total == TINY_NODES
    assert stats.total_breaker_opens() == 0
    assert all(not w.suspect for w in workers)


def test_suspicion_resolves_into_death():
    """A peer that crashes while its breaker is open must settle through
    the normal crash path: suspect set cleared, books closed, exact
    conservation (nothing double-recovered from the park)."""
    n = 16
    side = tuple(range(n // 2, n))
    plan = FaultPlan(partitions=((side, 1e-3, 8e-3),),
                     crashes=((n // 2, 4e-3),))   # dies mid-window
    total, stats, workers = _run("BTD", n, plan, seed=6, **PACING)
    assert total == TINY_NODES
    assert stats.fault_totals()[3] == 1
    for w in workers:
        assert n // 2 not in w.suspect            # death won over suspicion
        if not w._crashed:
            br = w._reliable._breakers.get(n // 2)
            assert br is None or br.state != B_OPEN
