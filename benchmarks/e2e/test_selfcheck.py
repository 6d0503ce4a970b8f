"""Self-check of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload at toy size through the one command and validates the
output against ``BENCHMARK.json``.  Not part of tier-1 (``testpaths`` is
``tests``): it spawns fleets and a daemon and takes most of a minute.
"""

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_manifest_matches_the_metric_tables():
    assert _manifest() == metrics.manifest()


def test_manifest_is_within_the_contract():
    doc = _manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in doc["end_to_end"]:
        assert m["unit"] and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_every_layer_metric_says_what_it_moves():
    workloads = {n for n, _why in metrics.WORKLOADS}
    end_to_end = {n for n, *_ in metrics.END_TO_END}
    for name, _unit, _better, moves in metrics.PER_LAYER:
        assert moves, name
        for metric, workload in moves:
            assert metric in end_to_end, (name, metric)
            assert workload in workloads, (name, workload)


def test_smoke_runs_every_workload_and_prints_every_metric():
    out = os.path.join(HERE, "out", "selfcheck.json")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", out], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert time.monotonic() - t0 < 60
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["context"]["cores"] >= 1
    assert doc["context"]["heapq_pairs_per_s"] > 0
    manifest = _manifest()
    assert set(doc["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for name, res in doc["workloads"].items():
        assert res["correct"] and res["fail_frac"] == 0, name
        for m in manifest["end_to_end"]:
            got = res["end_to_end"][m["name"]]
            assert got["unit"] == m["unit"] and got["median"] > 0, (name, m)
        assert set(res["per_layer"]) == {m["name"]
                                         for m in manifest["per_layer"]}
        for m in manifest["per_layer"]:
            assert res["per_layer"][m["name"]]["unit"] == m["unit"]
    layers = {n: r["per_layer"] for n, r in doc["workloads"].items()}
    # the layer separation the workloads were chosen for
    assert layers["live_uts_plain"]["runtime.spool.commits"]["value"] == 0
    assert layers["live_uts_ft"]["runtime.spool.commits"]["value"] > 0
    assert layers["sim_msg_btd"]["uts.self_s"]["value"] == 0
    assert layers["sim_uts_td"]["uts.self_s"]["value"] > 0
    assert layers["sim_bnb_td"]["bnb.self_s"]["value"] > 0
    assert layers["serve_mix_closed"]["serve.daemon.status_ops"]["value"] > 0
