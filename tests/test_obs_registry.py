"""Tests for the metrics registry: counters, gauges, bounded histograms."""

import pytest

from repro.obs.registry import (LATENCY_EDGES, METRICS, SIZE_EDGES, Counter,
                                Gauge, Histogram, MetricsRegistry)
from repro.sim.errors import SimConfigError


# -- histograms --------------------------------------------------------------

def test_histogram_empty():
    h = Histogram("h", edges=[1.0, 2.0])
    assert h.count == 0
    assert h.total == 0.0
    assert h.mean is None
    assert h.min is None and h.max is None
    assert h.overflow == 0
    assert h.counts == [0, 0, 0]           # len(edges) + 1
    snap = h.snapshot()
    assert snap["type"] == "histogram"
    assert snap["count"] == 0 and snap["mean"] is None


def test_histogram_single_sample():
    h = Histogram("h", edges=[1.0, 4.0, 16.0])
    h.observe(3.0)
    assert h.count == 1
    assert h.mean == pytest.approx(3.0)
    assert h.min == h.max == 3.0
    assert h.counts == [0, 1, 0, 0]        # (1, 4] bucket
    assert h.overflow == 0


def test_histogram_edges_are_inclusive_upper_bounds():
    h = Histogram("h", edges=[1.0, 4.0])
    h.observe(1.0)                         # exactly on an edge -> that bucket
    h.observe(4.0)
    assert h.counts == [1, 1, 0]


def test_histogram_overflow_bucket():
    h = Histogram("h", edges=[1.0, 2.0])
    for v in (0.5, 1.5, 2.5, 1e9):
        h.observe(v)
    assert h.counts == [1, 1, 2]
    assert h.overflow == 2                 # 2.5 and 1e9
    assert h.count == 4
    assert h.max == 1e9
    # exact moments survive bucketing
    assert h.total == pytest.approx(0.5 + 1.5 + 2.5 + 1e9)


def test_histogram_rejects_bad_edges():
    with pytest.raises(SimConfigError):
        Histogram("h", edges=[])
    with pytest.raises(SimConfigError):
        Histogram("h", edges=[1.0, 1.0])
    with pytest.raises(SimConfigError):
        Histogram("h", edges=[2.0, 1.0])


def test_default_edge_tables_strictly_increase():
    for edges in (LATENCY_EDGES, SIZE_EDGES):
        assert all(b > a for a, b in zip(edges, edges[1:]))


# -- counters / gauges -------------------------------------------------------

def test_counter_and_gauge():
    c = Counter("c")
    c.inc()
    c.inc(5)
    assert c.value == 6
    assert c.snapshot() == {"type": "counter", "value": 6}
    g = Gauge("g")
    g.set(2.5)
    g.set(1.5)                             # last write wins
    assert g.value == 1.5
    assert g.snapshot() == {"type": "gauge", "value": 1.5}


# -- registry ----------------------------------------------------------------

def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    c1 = reg.counter("steal.requests")
    c1.inc(3)
    c2 = reg.counter("steal.requests")
    assert c1 is c2
    assert c2.value == 3
    h1 = reg.histogram("steal.latency_s")
    h2 = reg.histogram("steal.latency_s", edges=[99.0])  # edges ignored
    assert h1 is h2
    assert len(reg) == 2
    assert reg.names() == ["steal.latency_s", "steal.requests"]


def test_registry_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(SimConfigError):
        reg.gauge("x")
    with pytest.raises(SimConfigError):
        reg.histogram("x")
    reg.histogram("y")
    with pytest.raises(SimConfigError):
        reg.counter("y")


def test_registry_snapshot_sorted_and_catalogue_help():
    reg = MetricsRegistry()
    reg.gauge("engine.makespan_s").set(1.0)
    reg.counter("steal.requests").inc()
    snap = reg.snapshot()
    assert list(snap) == ["engine.makespan_s", "steal.requests"]
    # catalogue names pick up their documented help text
    assert reg.get("steal.requests").help == METRICS["steal.requests"][1]


def test_absorb_merges_worker_snapshots():
    """Counters add, gauges keep the maximum, histograms add bucket by
    bucket and widen min/max — how a live run folds one snapshot per
    worker process into the run's registry."""
    def worker(requests, makespan, latencies):
        reg = MetricsRegistry()
        reg.counter("steal.requests").inc(requests)
        reg.gauge("engine.makespan_s").set(makespan)
        h = reg.histogram("lat", edges=[1.0, 4.0])
        for v in latencies:
            h.observe(v)
        return reg.snapshot()

    run = MetricsRegistry()
    run.absorb(worker(3, 0.5, [0.5, 9.0]))
    run.absorb(worker(4, 0.25, [2.0, 3.0, 0.1]))
    run.absorb({})                              # a worker with nothing
    assert run.counter("steal.requests").value == 7
    assert run.gauge("engine.makespan_s").value == 0.5
    h = run.get("lat")
    assert h.edges == [1.0, 4.0]
    assert h.counts == [2, 2, 1] and h.overflow == 1
    assert h.count == 5 and h.total == pytest.approx(14.6)
    assert (h.min, h.max) == (0.1, 9.0)
    # an empty histogram leaves min/max alone
    run.absorb({"lat": Histogram("lat", edges=[1.0, 4.0]).snapshot()})
    assert (h.min, h.max, h.count) == (0.1, 9.0, 5)
    # and the merge is what one registry observing everything would hold
    one = MetricsRegistry()
    for v in (0.5, 9.0, 2.0, 3.0, 0.1):
        one.histogram("lat", edges=[1.0, 4.0]).observe(v)
    assert run.get("lat").snapshot() == one.get("lat").snapshot()


def test_catalogue_kinds_are_known():
    assert set(k for k, _ in METRICS.values()) <= {"counter", "gauge",
                                                   "histogram"}
