"""Metrics registry: counters, gauges and bounded histograms.

The paper's evaluation (§IV) is built from *distributional* run-internal
signals — steal-request latencies, work-transfer sizes, termination-wave
round-trips — not just the flat totals in :class:`repro.sim.stats.RunStats`.
This module provides the registry those signals are published into.

Design constraints, in order:

1. **Zero cost when detached.** No registry is created unless the caller
   asks for one (``Simulator(metrics=...)`` / ``run_once(metrics=...)``);
   every publishing site is gated on a single ``is not None`` check against
   a cached attribute, so clean hot paths keep their exact instruction
   sequence. ``benchmarks/check_regression.py`` holds the event-queue
   throughput within tolerance of the recorded baseline to keep it that way.
2. **Purely observational.** Publishing never schedules events, draws
   randomness or mutates simulation state, so an instrumented run is
   bit-identical to a bare one (asserted by the test suite).
3. **Bounded memory.** Histograms hold fixed bucket arrays (upper-edge
   buckets plus one overflow bucket), never raw samples — a million-event
   run costs the same few hundred bytes as a ten-event run.

Instrument names are dotted strings (``steal.latency_s``); the catalogue of
names the framework publishes lives in :data:`METRICS` and is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Union

from ..sim.errors import SimConfigError


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    ``edges`` are the inclusive upper bounds of the finite buckets, in
    strictly increasing order; one extra overflow bucket catches anything
    above the last edge, so :attr:`counts` has ``len(edges) + 1`` entries
    and no observation is ever dropped. Exact ``count``/``total``/``min``/
    ``max`` ride along so means stay exact even though the distribution is
    bucketed.
    """

    __slots__ = ("name", "help", "edges", "counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, edges: Sequence[float],
                 help: str = "") -> None:
        if not edges:
            raise SimConfigError(f"histogram {name!r} needs >= 1 bucket edge")
        e = [float(x) for x in edges]
        if any(b <= a for a, b in zip(e, e[1:])):
            raise SimConfigError(
                f"histogram {name!r} edges must strictly increase: {e}")
        self.name = name
        self.help = help
        self.edges = e
        self.counts = [0] * (len(e) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @property
    def overflow(self) -> int:
        """Observations above the last edge."""
        return self.counts[-1]

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": [{"le": le, "count": c}
                        for le, c in zip(self.edges, self.counts)],
            "overflow": self.overflow,
        }


Instrument = Union[Counter, Gauge, Histogram]

#: Geometric latency edges (seconds): 10us .. ~40s, factor 4.
LATENCY_EDGES = tuple(1e-5 * 4 ** k for k in range(12))
#: Geometric size edges (units / bytes): 1 .. 64k, factor 4.
SIZE_EDGES = tuple(4 ** k for k in range(9))

#: Catalogue of the instruments the framework publishes (name -> (kind,
#: help)); see docs/observability.md. User code may register more.
METRICS = {
    "steal.requests": ("counter", "work requests issued (all protocols)"),
    "steal.latency_s": ("histogram", "first request of an idle episode -> "
                                     "WORK arrival (virtual s)"),
    "compute.quanta": ("counter", "application quanta executed"),
    "compute.units": ("counter", "work units processed in those quanta "
                                 "(units / quanta = mean batch)"),
    "compute.slice_s": ("histogram", "live: wall seconds per compute slice "
                                     "(sized against LIVE_SLICE_S)"),
    "work.transfer_units": ("histogram", "work units per WORK transfer"),
    "work.transfer_bytes": ("histogram", "encoded bytes per WORK transfer"),
    "term.waves": ("counter", "verification waves started by the root"),
    "term.wave_roundtrip_s": ("histogram", "root wave start -> all answers "
                                           "collected (virtual s)"),
    "reliable.retransmits": ("counter", "reliable-channel retransmissions"),
    "reliable.retransmit_delay_s": ("histogram",
                                    "backoff delay of each retransmission"),
    "reactor.turns": ("counter", "live: reactor turns (socket waits) of "
                                 "the job; at most one quantum each"),
    "spool.commits": ("counter", "live fault mode: write-ahead spool "
                                 "commits"),
    "spool.skipped": ("counter", "live fault mode: flushes the commit rule "
                                 "let through without a commit"),
    "spool.commit_s": ("histogram", "wall seconds per spool commit"),
    "spool.bytes": ("histogram", "record bytes per spool commit (header, "
                                 "JSON head, raw UTS stacks)"),
    "engine.events": ("gauge", "events fired over the run"),
    "engine.makespan_s": ("gauge", "virtual time of termination"),
    "engine.crashes": ("counter", "crash-stop faults injected"),
}


class MetricsRegistry:
    """Named instruments, created on first use (get-or-create semantics)."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get(self, name: str, cls, **kwargs) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            help = kwargs.pop("help", "") or METRICS.get(name, ("", ""))[1]
            inst = cls(name, help=help, **kwargs)
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, cls):
            raise SimConfigError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, edges: Sequence[float] = LATENCY_EDGES,
                  help: str = "") -> Histogram:
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, Histogram):
                raise SimConfigError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not Histogram")
            return inst
        return self._get(name, Histogram, edges=edges, help=help)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument, sorted by name."""
        return {name: self._instruments[name].snapshot()
                for name in self.names()}

    def absorb(self, snap: dict) -> None:
        """Merge another registry's :meth:`snapshot` into this one:
        counters add, gauges keep the maximum, histograms add bucket by
        bucket (live runs merge one snapshot per worker process)."""
        for name, s in snap.items():
            kind = s.get("type")
            if kind == "counter":
                self.counter(name).inc(s["value"])
            elif kind == "gauge":
                g = self.gauge(name)
                g.set(max(g.value, s["value"]))
            elif kind == "histogram":
                h = self.histogram(name,
                                   edges=[b["le"] for b in s["buckets"]])
                for i, b in enumerate(s["buckets"]):
                    h.counts[i] += b["count"]
                h.counts[-1] += s["overflow"]
                h.count += s["count"]
                h.total += s["total"]
                for attr, pick in (("min", min), ("max", max)):
                    v = s[attr]
                    if v is not None:
                        cur = getattr(h, attr)
                        setattr(h, attr, v if cur is None else pick(cur, v))


__all__ = ["Counter", "Gauge", "Histogram", "Instrument", "LATENCY_EDGES",
           "METRICS", "MetricsRegistry", "SIZE_EDGES"]
