"""Observability: metrics registry, structured trace export, run reports.

Three layers, all strictly opt-in and zero-cost when detached:

* :mod:`repro.obs.registry` — counters, gauges and bounded histograms the
  engine/worker/termination/reliable layers publish into when a
  :class:`MetricsRegistry` is attached (``Simulator(metrics=...)``);
* :mod:`repro.obs.export` — schema-versioned NDJSON trace files
  (stream-written or dumped post-run, gzip-able, bit-identical round-trip);
* :mod:`repro.obs.report` — per-run reports (per-node load table, steal
  matrix, utilization/idle breakdown) with human and JSON renderings,
  served by ``python -m repro.experiments report``.

See ``docs/observability.md`` for the metric catalogue and trace schema.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .export import (TRACE_SCHEMA_VERSION, LoadedTrace, TraceWriter,
                         export_trace, load_trace)
    from .registry import (LATENCY_EDGES, METRICS, SIZE_EDGES, Counter, Gauge,
                           Histogram, MetricsRegistry)
    from .report import (REPORT_SCHEMA_VERSION, RunReport, build_report,
                         load_entropy, steal_matrix)

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".export": "TRACE_SCHEMA_VERSION LoadedTrace TraceWriter export_trace load_trace",
    ".registry": "LATENCY_EDGES METRICS SIZE_EDGES Counter Gauge Histogram MetricsRegistry",
    ".report": "REPORT_SCHEMA_VERSION RunReport build_report load_entropy steal_matrix",
})
