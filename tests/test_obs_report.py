"""Tests for run reports: the work-conservation invariant and the CLI."""

import json

import pytest

from repro.experiments.runner import RunConfig, run_instrumented
from repro.experiments.runreport import report_main
from repro.experiments.specs import UTSSpec
from repro.obs.export import load_trace
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (REPORT_SCHEMA_VERSION, build_report,
                              load_entropy, steal_matrix)
from repro.sim.trace import QUANTUM, TRANSFER, Tracer
from repro.uts.params import PRESETS

MINI_NODES = 53


# -- load metrics ------------------------------------------------------------

def test_load_entropy():
    assert load_entropy([10, 10, 10, 10]) == pytest.approx(1.0)
    assert load_entropy([40, 0, 0, 0]) == pytest.approx(0.0)
    assert load_entropy([]) is None
    assert load_entropy([7]) is None          # single node: undefined
    assert load_entropy([0, 0]) is None       # no work done
    mid = load_entropy([30, 10])
    assert 0.0 < mid < 1.0


def test_steal_matrix_from_transfer_samples():
    t = Tracer()
    t.record(0.1, 3, TRANSFER, 0.0)           # 0 -> 3
    t.record(0.2, 3, TRANSFER, 0.0)           # 0 -> 3 again
    t.record(0.3, 1, TRANSFER, 2.0)           # 2 -> 1
    t.record(0.4, 1, "quantum", 64.0)         # ignored
    assert steal_matrix(t) == {(0, 3): 2, (2, 1): 1}


# -- the conservation invariant ----------------------------------------------

@pytest.mark.parametrize("protocol", ["TD", "BTD", "RWS"])
def test_per_node_units_sum_to_total(protocol):
    """Report per-node work totals sum exactly to the run's work units."""
    cfg = RunConfig(protocol=protocol, n=8, quantum=16, seed=42)
    tracer, metrics = Tracer(), MetricsRegistry()
    result, stats = run_instrumented(cfg, UTSSpec("bin_mini").build(),
                                     tracer=tracer, metrics=metrics)
    report = build_report(cfg, result, stats, tracer=tracer,
                          metrics=metrics, app="uts/bin_mini")
    doc = report.to_json()
    assert doc["schema"] == REPORT_SCHEMA_VERSION
    per_node_sum = sum(row["units"] for row in doc["per_node"])
    assert per_node_sum == doc["totals"]["work_units"] == MINI_NODES
    assert len(doc["per_node"]) == 8
    shares = [row["share_pct"] for row in doc["per_node"]]
    assert sum(shares) == pytest.approx(100.0)
    # the rendering is exercised too (no crash, mentions the protocol)
    assert protocol in report.render()


def test_report_counts_transfers_and_metrics():
    # quantum 4: small enough that steals are actually served on the
    # 53-node mini tree (quantum 16 drains it before any WORK reply)
    cfg = RunConfig(protocol="BTD", n=8, quantum=4, seed=42)
    tracer, metrics = Tracer(), MetricsRegistry()
    result, stats = run_instrumented(cfg, UTSSpec("bin_mini").build(),
                                     tracer=tracer, metrics=metrics)
    report = build_report(cfg, result, stats, tracer=tracer, metrics=metrics)
    # every recorded transfer edge appears in the matrix, and transfer
    # counts agree with the metrics registry's WORK-transfer histogram
    total_edges = sum(e["count"] for e in report.transfers)
    xfers = metrics.get("work.transfer_units")
    assert xfers is not None and xfers.count == total_edges > 0
    assert report.metrics["steal.requests"]["value"] == \
        report.totals["steals"]


def test_compute_counters_give_the_batch_mean():
    """``compute.units`` / ``compute.quanta`` — the mean batch a run's
    kernel sees — are counted by the worker itself, once per quantum block:
    units sum to the run's total, quanta to the traced QUANTUM samples, on
    the traced (per-quantum replay) and the untraced (fused) loop alike."""
    tiny = PRESETS["bin_tiny"]
    cfg = RunConfig(protocol="TD", n=8, quantum=16, seed=42)
    tracer, traced, fused = Tracer(), MetricsRegistry(), MetricsRegistry()
    result, _ = run_instrumented(cfg, UTSSpec("bin_tiny").build(),
                                 tracer=tracer, metrics=traced)
    run_instrumented(cfg, UTSSpec("bin_tiny").build(), metrics=fused)
    quanta = sum(1 for s in tracer.samples if s.kind == QUANTUM)
    for reg in (traced, fused):
        assert reg.get("compute.units").value == result.total_units \
            == tiny.nodes
        assert reg.get("compute.quanta").value == quanta
    assert quanta >= tiny.nodes / 16


def test_report_surfaces_circuit_breakers():
    """A partitioned run's report carries the breaker section: per-(owner,
    peer) trip/probe/open-span rows folded from CIRCUIT trace samples."""
    from repro.sim.faults import FaultPlan
    plan = FaultPlan(partitions=(((8, 9, 10, 11, 12, 13, 14, 15),
                                  1e-3, 8e-3),))
    cfg = RunConfig(protocol="BTD", n=16, quantum=16, seed=1, faults=plan,
                    ack_timeout=5e-4, breaker_threshold=3)
    tracer = Tracer()
    result, stats = run_instrumented(
        cfg, UTSSpec("bin_tiny").build(), tracer=tracer)
    report = build_report(cfg, result, stats, tracer=tracer,
                          app="uts/bin_tiny")
    doc = report.to_json()
    assert doc["faults"]["breaker_opens"] == result.breaker_opens > 0
    rows = doc["breakers"]
    assert rows, "no breaker rows despite trips"
    assert sum(r["opens"] for r in rows) == result.breaker_opens
    for r in rows:
        assert r["state"] == "closed"            # the heal closed them all
        assert r["open_s"] > 0.0
        assert r["owner"] != r["peer"]
    rendered = report.render()
    assert "breaker trips" in rendered
    assert "circuit breakers" in rendered


def test_report_without_faults_has_no_breaker_section():
    cfg = RunConfig(protocol="BTD", n=8, quantum=16, seed=42)
    tracer = Tracer()
    result, stats = run_instrumented(cfg, UTSSpec("bin_mini").build(),
                                     tracer=tracer)
    report = build_report(cfg, result, stats, tracer=tracer)
    assert report.breakers == []
    assert "circuit breakers" not in report.render()


# -- the CLI -----------------------------------------------------------------

def test_report_cli_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    json_out = tmp_path / "report.json"
    trace_out = tmp_path / "trace.ndjson.gz"
    text_out = tmp_path / "report.txt"

    rc = report_main(["--app", "uts", "--preset", "bin_mini",
                      "--protocol", "BTD", "--n", "8", "--quantum", "16",
                      "--seed", "42", "--json", str(json_out),
                      "--trace", str(trace_out), "--out", str(text_out)])
    assert rc == 0
    rendered = capsys.readouterr().out
    assert "run report: uts/bin_mini / BTD n=8" in rendered
    assert text_out.read_text().strip() in rendered.strip()

    doc = json.loads(json_out.read_text())
    assert doc["schema"] == REPORT_SCHEMA_VERSION
    assert doc["meta"]["cached_cell"] is False       # cache dir was empty
    assert sum(r["units"] for r in doc["per_node"]) \
        == doc["totals"]["work_units"] == MINI_NODES

    loaded = load_trace(str(trace_out))
    assert loaded.meta["protocol"] == "BTD"
    assert loaded.meta["cell_key"] == doc["meta"]["cell_key"]
    assert len(loaded.samples) > 0


def test_report_cli_cross_checks_cached_cell(tmp_path, monkeypatch, capsys):
    """With the grid cell already cached, the report flags the cache hit."""
    from repro.experiments.cache import ResultCache, cell_key
    from repro.experiments.runner import run_once

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

    spec = UTSSpec("bin_mini")
    cfg = RunConfig(protocol="BTD", n=8, quantum=16, seed=42,
                    dmax=10, sharing="proportional")
    result = run_once(cfg, spec.build())
    ResultCache().put(cell_key(cfg, spec), result)

    json_out = tmp_path / "report.json"
    rc = report_main(["--app", "uts", "--preset", "bin_mini",
                      "--protocol", "BTD", "--n", "8", "--quantum", "16",
                      "--seed", "42", "--quiet", "--json", str(json_out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""                        # --quiet
    assert "WARNING" not in captured.err             # fresh == cached
    doc = json.loads(json_out.read_text())
    assert doc["meta"]["cached_cell"] is True
    assert "cached_cell_mismatch" not in doc["meta"]


def test_report_cli_rejects_unknown_preset(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with pytest.raises(SystemExit):
        report_main(["--app", "uts", "--preset", "no_such_preset"])
