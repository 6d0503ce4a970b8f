"""Sharded parallel engine: partition invariants and serial==sharded goldens.

The correctness bar for :mod:`repro.sim.shard` is *bit-identity* with the
serial fused engine — same makespan, node counts, steal counts, message
counts, RNG draws — not statistical agreement. The goldens here pin that
for every protocol family x application, clean and faulted, with network
jitter (its draws are keyed per (src, send index), so shards reproduce
them exactly) and in lockstep: zero jitter and equal speeds, where events
from different shards collide at the same instant all the time and only
the heap key, ``(time, origin pid, per-origin ordinal)``, decides which
fires first.
"""

import math
import pickle
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.synthetic import SyntheticApplication, SyntheticWork
from repro.apps.uts_app import UTSApplication
from repro.bnb.work import BnBWork
from repro.experiments.runner import RunConfig, run_instrumented
from repro.sim.errors import SimConfigError
from repro.sim.events import event_key
from repro.sim.faults import FaultPlan
from repro.sim.messages import Message
from repro.sim.network import ClusterSpec, NetworkModel, uniform_network
from repro.sim.shard import partition_fleet, run_sharded, seal_parcels
from repro.sim.stats import _FLOAT_FIELDS, _INT_FIELDS
from repro.uts.params import PRESETS
from repro.uts.work import UTSWork

MINI = PRESETS["bin_mini"].params


def _synth(total=2000):
    return SyntheticApplication(total, unit_cost=1e-6)


def _uts():
    return UTSApplication(MINI)


def _bnb():
    from repro.apps.bnb_app import BnBApplication
    from repro.bnb.taillard import scaled_instance
    return BnBApplication(scaled_instance(5, n_jobs=6, n_machines=5))


APPS = {"synthetic": _synth, "uts": _uts, "bnb": _bnb}


def assert_bit_identical(cfg, builder, shards):
    """Serial fused run and sharded run agree on every observable."""
    res_s, stats_s = run_instrumented(cfg, builder())
    res_p, stats_p, walls = run_sharded(cfg, builder, shards)
    assert len(walls) == min(shards, cfg.n) or walls == [0.0]
    assert res_p.makespan == res_s.makespan
    assert res_p.work_done_time == res_s.work_done_time
    assert res_p.total_units == res_s.total_units
    assert res_p.total_msgs == res_s.total_msgs
    assert res_p.total_steals == res_s.total_steals
    assert res_p.optimum == res_s.optimum
    assert res_p.optimum_perm == res_s.optimum_perm
    # events_equivalent is the canonical event count; raw events /
    # macro_events / fused_quanta measure how fusion *batched* them,
    # and window horizons legitimately split fusion runs differently
    assert res_p.events_equivalent == res_s.events_equivalent
    assert res_p.redundancy == res_s.redundancy
    assert stats_p.fault_totals() == stats_s.fault_totals()
    for pid in range(cfg.n):
        a, b = stats_s.per_process[pid], stats_p.per_process[pid]
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            assert getattr(b, name) == getattr(a, name), (pid, name)
    return res_p


# -- partitioning ------------------------------------------------------------

@pytest.mark.parametrize("proto", ["TD", "TR", "BTD", "RWS", "LIFELINE"])
def test_partition_covers_fleet(proto):
    cfg = RunConfig(protocol=proto, n=50, dmax=4, seed=7)
    owner = partition_fleet(cfg, 4)
    assert len(owner) == 50
    assert set(owner) == {0, 1, 2, 3}          # no empty shard at this size
    assert owner[0] == 0                        # root pinned to shard 0
    assert owner == partition_fleet(cfg, 4)     # deterministic


def test_partition_respects_subtrees():
    """TD units are whole subtrees: every pid shares a shard with its
    parent unless the parent's subtree was too big to be one unit."""
    from repro.overlay.tree import deterministic_tree
    n, shards = 60, 3
    cfg = RunConfig(protocol="TD", n=n, dmax=3, seed=0)
    owner = partition_fleet(cfg, shards)
    tree = deterministic_tree(n, 3)
    target = -(-n // shards)
    for pid in range(1, n):
        parent = tree.parent[pid]
        if tree.subtree_size[pid] <= target and owner[pid] != owner[parent]:
            # a cut above pid is only legal where the parent's subtree
            # exceeded the unit target (the parent became a singleton)
            assert tree.subtree_size[parent] > target


def test_partition_cluster_refinement():
    """With a placed multi-cluster network no unit straddles clusters, and
    the partition still covers the fleet."""
    net = NetworkModel(clusters=(ClusterSpec("a", 64), ClusterSpec("b", 64)),
                       c2_threshold=8)
    net.place(40, seed=1)
    cfg = RunConfig(protocol="TD", n=40, dmax=3, seed=1, network=net)
    owner = partition_fleet(cfg, 4, network=net)
    assert len(owner) == 40 and set(owner) <= {0, 1, 2, 3}
    assert owner[0] == 0


# -- parcels: what crosses a barrier ----------------------------------------

def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def test_message_pickles_every_field():
    msg = Message(3, 7, "WORK", (SyntheticWork(5), 2), size_bytes=200,
                  send_time=0.125)
    copy = _round_trip(msg)
    assert (copy.src, copy.dst, copy.kind, copy.size_bytes,
            copy.send_time) == (3, 7, "WORK", 200, 0.125)
    assert copy.payload[0].units == 5 and copy.payload[1] == 2


def test_synthetic_work_pickles():
    assert _round_trip(SyntheticWork(1234)).units == 1234
    assert _round_trip(SyntheticWork(0)).units == 0


def test_uts_work_pickles_live_entries():
    work = UTSWork.root(MINI)
    work.process(40)
    piece = work.split(0.5)
    assert piece is not None and piece.amount() > 0
    for w in (work, piece, UTSWork.empty(MINI)):
        copy = _round_trip(w)
        assert copy.params == w.params
        states, depths = copy.peek()
        want_s, want_d = w.peek()
        assert states.tolist() == want_s.tolist()
        assert depths.tolist() == want_d.tolist()
    # only the live entries travel, not the spare buffer capacity
    assert len(pickle.dumps(UTSWork.empty(MINI))) < len(
        pickle.dumps(UTSWork.root(MINI)))


def test_bnb_work_pickles_without_cursor():
    work = BnBWork(6, [(0, 100), (300, 700)])
    work.merge(BnBWork(6, [(120, 200)]))    # a merged pool: not ascending
    work.cursor = ("paused", 1)
    copy = _round_trip(work)
    assert copy.n_jobs == 6
    assert copy.as_tuples() == [(0, 100), (300, 700), (120, 200)]
    assert copy.cursor is None


def _entry(src, seq, dst, arrive_at, send_time=0.5):
    msg = Message(src, dst, "REQ", ("up", send_time), send_time=send_time)
    return (arrive_at, event_key(src, seq), msg)


def test_seal_parcels_groups_by_owner_and_bids_minimum():
    owner = [0, 0, 1, 1, 2, 2]
    outbox = [_entry(0, 0, 2, 0.9), _entry(0, 1, 4, 0.7),
              _entry(1, 2, 3, 0.6), _entry(1, 3, 5, 0.8),
              _entry(0, 4, 2, 0.95)]
    sealed = seal_parcels(outbox, owner)
    assert sorted(sealed) == [1, 2]
    assert sealed[1][0] == 0.6 and sealed[2][0] == 0.7
    for k, (_at, blob) in sealed.items():
        entries = pickle.loads(blob)
        want = [e for e in outbox if owner[e[2].dst] == k]
        # entry order survives the bytes, message fields included
        assert [e[:2] for e in entries] == [e[:2] for e in want]
        assert [(e[2].src, e[2].dst, e[2].send_time) for e in entries] == [
            (e[2].src, e[2].dst, e[2].send_time) for e in want]
    assert seal_parcels([], owner) == {}


def test_seal_parcels_keeps_a_duplicate_on_one_message():
    """A duplicated delivery is exported twice with the same message; the
    destination must see one object, as the serial engine delivers it."""
    msg = Message(0, 3, "WORK", (SyntheticWork(9), 0), send_time=0.1)
    outbox = [(0.4, event_key(0, 0), msg), (0.45, event_key(0, 1), msg)]
    (_at, blob), = seal_parcels(outbox, [0, 0, 1, 1]).values()
    first, second = pickle.loads(blob)
    assert first[2] is second[2]


# -- golden matrix: serial == sharded ---------------------------------------

@pytest.mark.parametrize("proto", ["TD", "TR", "BTD", "RWS"])
@pytest.mark.parametrize("app", ["synthetic", "uts", "bnb"])
def test_golden_serial_equals_sharded(proto, app):
    cfg = RunConfig(protocol=proto, n=16, dmax=3, quantum=16, seed=42,
                    jitter=1.5, speed_spread=0.3)
    assert_bit_identical(cfg, APPS[app], shards=3)


@pytest.mark.parametrize("proto", ["TD", "BTD", "RWS"])
@pytest.mark.parametrize("app", ["synthetic", "uts"])
def test_golden_lockstep(proto, app):
    """Zero jitter, equal speeds: simultaneous cross-shard events abound."""
    cfg = RunConfig(protocol=proto, n=16, dmax=3, quantum=16, seed=42,
                    jitter=0.0)
    assert_bit_identical(cfg, APPS[app], shards=3)


def test_golden_lockstep_faulted():
    """Lockstep with crashes in two shards plus loss and duplication."""
    plan = FaultPlan(crashes=((3, 4e-4), (11, 9e-4)), loss=0.05, dup=0.03)
    cfg = RunConfig(protocol="BTD", n=16, dmax=3, quantum=16, seed=42,
                    jitter=0.0, faults=plan)
    res = assert_bit_identical(cfg, _uts, shards=3)
    assert res.crashes == 2


@pytest.mark.parametrize("app", ["synthetic", "uts"])
def test_golden_faulted(app):
    """Crash-stop + loss + duplication, crashes in different shards."""
    plan = FaultPlan(crashes=((3, 4e-4), (11, 9e-4)), loss=0.05, dup=0.03)
    cfg = RunConfig(protocol="TD", n=16, dmax=3, quantum=16, seed=42,
                    jitter=1.5, faults=plan)
    res = assert_bit_identical(cfg, APPS[app], shards=3)
    assert res.crashes == 2


@pytest.mark.parametrize("proto", ["TD", "BTD", "RWS"])
@pytest.mark.parametrize("app", ["synthetic", "uts"])
def test_golden_partitioned_and_gray(proto, app):
    """Partition + gray failures across shard boundaries stay bit-identical:
    cut tests are pure functions of (src, dst, now), gray drops are keyed
    per (rule, sender, send index), and slowed pids opt out of fusion the
    same way serially and sharded."""
    plan = FaultPlan(
        partitions=(((8, 9, 10, 11, 12, 13, 14, 15), 1e-3, 7e-3),),
        slowdowns=((5, 0.0, 6e-3, 6.0),),
        gray_links=((None, 5, 0.0, 6e-3, 3.0, 0.4),
                    (5, None, 0.0, 6e-3, 3.0, 0.4)))
    cfg = RunConfig(protocol=proto, n=16, dmax=3, quantum=16, seed=42,
                    jitter=1.5, faults=plan, ack_timeout=5e-4,
                    breaker_threshold=3)
    res = assert_bit_identical(cfg, APPS[app], shards=3)
    assert res.msgs_lost > 0                  # the cut actually dropped


# -- window mechanics --------------------------------------------------------

def test_run_window_horizon_is_exclusive():
    """An event at exactly the horizon must NOT fire in the window — it is
    the next window's first event (the conservative-lookahead contract:
    a message sent at t arrives no earlier than t + min_delay == horizon,
    so firing *at* the horizon could miss it)."""
    from repro.sim.engine import Simulator

    class _Idle:
        pid, sim = 0, None

        def start(self):
            pass

        def finished(self):
            return True

        def _arrive(self, msg):
            raise AssertionError("no deliveries expected")

    sim = Simulator(uniform_network(latency=1e-4), seed=0)
    sim.add_process(_Idle())
    fired = []
    sim.begin_windows()
    sim.queue.push(1.0, 0, partial(fired.append, 1.0))
    sim.queue.push(2.0, 1, partial(fired.append, 2.0))
    assert sim.run_window(2.0) == 2.0
    assert fired == [1.0]
    assert sim.run_window(math.nextafter(2.0, math.inf)) is None
    assert fired == [1.0, 2.0]


def test_exact_lookahead_boundary_delivery():
    """Infinite bandwidth + zero handler cost makes every cross-shard
    arrival land at exactly ``send_time + min_delay`` — the lookahead
    boundary itself. The run must still terminate and conserve work."""
    net = NetworkModel(clusters=(ClusterSpec("flat", 64),),
                       lat_intra=1e-4, lat_inter=1e-4,
                       bandwidth=math.inf, handler_cost=0.0, jitter=1.5)
    cfg = RunConfig(protocol="TD", n=8, dmax=3, quantum=16, seed=3,
                    network=net)
    assert_bit_identical(cfg, partial(_synth, 1500), shards=2)


def test_one_shard_per_pid_empty_windows():
    """shards == n maximises idle shards: most windows are empty for most
    shards (their bid is None until work arrives). Still bit-identical."""
    cfg = RunConfig(protocol="TD", n=8, dmax=3, quantum=16, seed=5,
                    jitter=1.5)
    assert_bit_identical(cfg, partial(_synth, 1500), shards=8)


def test_crashed_shard_goes_quiet():
    """Crashing every pid of one shard early leaves that shard with no
    events for the rest of the run; the window loop must not wedge on its
    permanently-None bid."""
    cfg0 = RunConfig(protocol="TD", n=12, dmax=3, quantum=16, seed=9)
    owner = partition_fleet(cfg0, 3)
    victims = tuple((pid, 3e-4) for pid in range(12)
                    if owner[pid] == 2 and pid != 0)
    assert victims, "partition should give shard 2 some non-root pids"
    cfg = RunConfig(protocol="TD", n=12, dmax=3, quantum=16, seed=9,
                    jitter=1.5, faults=FaultPlan(crashes=victims))
    res = assert_bit_identical(cfg, partial(_synth, 1500), shards=3)
    assert res.crashes == len(victims)
    assert res.total_units == 1500


# -- API edges ---------------------------------------------------------------

def test_shards_clamped_to_n():
    cfg = RunConfig(protocol="TD", n=4, dmax=3, quantum=16, seed=2,
                    jitter=1.5)
    res, _stats, walls = run_sharded(cfg, partial(_synth, 800), 16)
    assert len(walls) == 4
    assert res.total_units == 800


def test_max_events_rejected():
    cfg = RunConfig(protocol="TD", n=8, max_events=100)
    with pytest.raises(SimConfigError, match="max_events"):
        run_sharded(cfg, _synth, 2)


def test_zero_min_delay_rejected():
    cfg = RunConfig(protocol="TD", n=8,
                    network=uniform_network(latency=0.0))
    with pytest.raises(SimConfigError, match="min_delay"):
        run_sharded(cfg, _synth, 2)


def test_single_shard_falls_back_to_serial():
    cfg = RunConfig(protocol="BTD", n=8, dmax=3, quantum=16, seed=4)
    res_p, _stats, walls = run_sharded(cfg, partial(_synth, 1000), 1)
    assert walls == [0.0]
    res_s, _ = run_instrumented(cfg, _synth(1000))
    assert (res_p.makespan, res_p.total_msgs) == (
        res_s.makespan, res_s.total_msgs)


def test_two_shards_td_jitter():
    """TD with jitter on two shards of ten pids: the merged rows equal the
    serial run's, each copied from its owner shard."""
    cfg = RunConfig(protocol="TD", n=10, dmax=3, quantum=16, seed=6,
                    jitter=1.5)
    assert_bit_identical(cfg, partial(_synth, 1200), shards=2)


def test_trace_merge_matches_serial():
    """Per-shard trace samples merge into the serial timeline: identical
    sample multisets, ordered by (time, pid) — per-pid order preserved,
    cross-pid same-time interleaving the only (documented) freedom."""
    from repro.sim.trace import Tracer
    cfg = RunConfig(protocol="BTD", n=10, dmax=3, quantum=16, seed=8,
                    jitter=1.5)
    tr_s, tr_p = Tracer(), Tracer()
    run_instrumented(cfg, _synth(1500), tracer=tr_s)
    run_sharded(cfg, partial(_synth, 1500), 3, tracer=tr_p)
    key = lambda s: (s.time, s.pid, s.kind, s.value)  # noqa: E731
    assert sorted(tr_p.samples, key=key) == sorted(tr_s.samples, key=key)
    # merged stream itself is (time, pid)-sorted for downstream analyzers
    order = [(s.time, s.pid) for s in tr_p.samples]
    assert order == sorted(order)


# -- property: randomized configs -------------------------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(proto=st.sampled_from(["TD", "BTD", "TR", "RWS"]),
       n=st.integers(min_value=4, max_value=12),
       shards=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=200),
       crash=st.booleans())
def test_property_serial_equals_sharded(proto, n, shards, seed, crash):
    faults = (FaultPlan(crashes=((n - 1, 5e-4),), loss=0.02, dup=0.01)
              if crash else None)
    cfg = RunConfig(protocol=proto, n=n, dmax=3, quantum=16, seed=seed,
                    jitter=1.5, faults=faults)
    assert_bit_identical(cfg, partial(_synth, 1500), shards)
