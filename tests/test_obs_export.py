"""Tests for the NDJSON trace exporter: round-trip, schema, truncation."""

import json

import pytest

from repro.obs.export import (TRACE_SCHEMA_VERSION, TraceWriter, export_trace,
                              load_trace)
from repro.sim.errors import SimConfigError
from repro.sim.trace import Tracer


def make_tracer():
    t = Tracer()
    t.record(0.0, 0, "quantum", 64.0)
    t.record(1e-4, 3, "message", 1.0)
    t.record(0.25, 1, "transfer", 2.0)
    # values that stress float round-tripping
    t.record(1 / 3, 2, "quantum", 1e-7)
    t.record(0.1 + 0.2, 0, "finish", 0.0)
    return t


def test_export_load_round_trip(tmp_path):
    tracer = make_tracer()
    path = tmp_path / "run.ndjson"
    n = export_trace(tracer, str(path), meta={"seed": 42, "proto": "BTD"})
    assert n == len(tracer.samples)

    loaded = load_trace(str(path))
    assert loaded.schema == TRACE_SCHEMA_VERSION
    assert loaded.meta == {"seed": 42, "proto": "BTD"}
    # bit-identical samples: repr round-trip of every float
    assert loaded.samples == tracer.samples

    # a load -> re-export cycle reproduces the file byte for byte
    path2 = tmp_path / "again.ndjson"
    export_trace(loaded.tracer, str(path2), meta=loaded.meta)
    assert path.read_bytes() == path2.read_bytes()


def test_gzip_round_trip(tmp_path):
    tracer = make_tracer()
    path = tmp_path / "run.ndjson.gz"
    export_trace(tracer, str(path), meta={"k": 1})
    assert path.read_bytes()[:2] == b"\x1f\x8b"     # actually gzipped
    loaded = load_trace(str(path))
    assert loaded.samples == tracer.samples
    assert loaded.meta == {"k": 1}


def test_streaming_writer_matches_post_hoc_export(tmp_path):
    tracer = make_tracer()
    streamed = tmp_path / "streamed.ndjson"
    with TraceWriter(str(streamed), meta={"m": 1}) as tw:
        assert tw.enabled
        for s in tracer.samples:
            tw.record(s.time, s.pid, s.kind, s.value)
    dumped = tmp_path / "dumped.ndjson"
    export_trace(tracer, str(dumped), meta={"m": 1})
    assert streamed.read_bytes() == dumped.read_bytes()


def test_writer_record_after_close_is_noop(tmp_path):
    path = tmp_path / "t.ndjson"
    tw = TraceWriter(str(path))
    tw.record(0.0, 0, "quantum", 1.0)
    tw.close()
    tw.record(1.0, 0, "quantum", 1.0)       # ignored, not an error
    tw.close()                              # idempotent
    assert len(load_trace(str(path)).samples) == 1


def test_unsupported_schema_version_rejected(tmp_path):
    path = tmp_path / "future.ndjson"
    path.write_text(
        json.dumps({"record": "header", "schema": 99, "meta": {}}) + "\n"
        + json.dumps({"record": "end", "samples": 0}) + "\n")
    with pytest.raises(SimConfigError, match="unsupported trace schema"):
        load_trace(str(path))


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "noheader.ndjson"
    path.write_text(json.dumps({"record": "end", "samples": 0}) + "\n")
    with pytest.raises(SimConfigError, match="no header"):
        load_trace(str(path))


def test_truncated_trace_rejected(tmp_path):
    tracer = make_tracer()
    full = tmp_path / "full.ndjson"
    export_trace(tracer, str(full), meta={})
    lines = full.read_text().splitlines(keepends=True)

    # writer died before the footer
    trunc = tmp_path / "trunc.ndjson"
    trunc.write_text("".join(lines[:-1]))
    with pytest.raises(SimConfigError, match="truncated"):
        load_trace(str(trunc))

    # footer present but samples missing
    holey = tmp_path / "holey.ndjson"
    holey.write_text("".join(lines[:2] + lines[-1:]))
    with pytest.raises(SimConfigError, match="sample count mismatch"):
        load_trace(str(holey))


def test_garbage_rejected(tmp_path):
    path = tmp_path / "garbage.ndjson"
    path.write_text("this is not json\n")
    with pytest.raises(SimConfigError, match="not valid JSON"):
        load_trace(str(path))
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    with pytest.raises(SimConfigError, match="empty"):
        load_trace(str(empty))


def test_trace_writer_streams_a_live_run(tmp_path):
    """TraceWriter is duck-compatible with Tracer: attach it to a run."""
    from repro.experiments.runner import RunConfig, run_once
    from repro.experiments.specs import UTSSpec

    spec = UTSSpec("bin_mini")
    cfg = RunConfig(protocol="BTD", n=4, quantum=16, seed=7)

    mem = Tracer()
    run_once(cfg, spec.build(), tracer=mem)

    path = tmp_path / "live.ndjson.gz"
    with TraceWriter(str(path), meta={"streamed": True}) as tw:
        run_once(cfg, spec.build(), tracer=tw)

    loaded = load_trace(str(path))
    assert loaded.meta == {"streamed": True}
    assert loaded.samples == mem.samples    # deterministic + bit-identical
