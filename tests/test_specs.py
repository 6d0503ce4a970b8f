"""One description of an application: the spec dataclasses.

A spec is the grid's cell workload, the cache's key, the live fleet's and
the serve API's JSON document, the command lines' string and the label of
every report and trace.  These tests pin what must not move when the
translators between those forms are gone: the cache keys, the documents
the benchmark and the load generator submit and their labels, and the
round trip between a spec and its wire form.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.experiments.specs import (KINDS, AppSpec, BnBSpec, SyntheticSpec,
                                     UTSSpec)
from repro.runtime.worker import build_app
from repro.serve.loadgen import DEFAULT_MIX, POISON_SPEC, parse_mix
from repro.sim.errors import SimConfigError

WORKLOADS = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
             / "workloads.py")

# -- the round trip -------------------------------------------------------------

costs = st.floats(min_value=1e-9, max_value=1.0)
small = st.integers(min_value=0, max_value=10_000)
SPECS = st.one_of(
    st.builds(UTSSpec, st.text(), unit_cost=costs),
    st.builds(BnBSpec, small, n_jobs=small, n_machines=small,
              bound=st.sampled_from(["lb1", "lb1_d", "llrk"]),
              warm_start=st.booleans(), unit_cost=costs),
    st.builds(SyntheticSpec, small, unit_cost=costs))


@given(SPECS)
def test_wire_round_trip(spec):
    assert AppSpec.from_wire(spec.to_wire()) == spec
    assert AppSpec.from_wire(json.loads(json.dumps(spec.to_wire()))) == spec


def test_every_kind_is_covered():
    assert set(KINDS) == {"uts", "bnb", "synthetic"}


# -- cache keys, pinned from the code before specs had a wire form ---------------

UTS_TINY = ("bin", 4000, 0.4, 2, 1, 0.85, 30, "splitmix")
CACHE_KEYS = [
    (UTSSpec("bin_tiny"), ("uts", UTS_TINY, 5e-06)),
    (UTSSpec("bin_mini", unit_cost=1e-6),
     ("uts", ("bin", 20, 0.45, 2, 3, 0.85, 30, "splitmix"), 1e-06)),
    (UTSSpec("bin_small"),
     ("uts", ("bin", 15000, 0.45, 2, 2, 0.85, 30, "splitmix"), 5e-06)),
    (UTSSpec("geo_small"),
     ("uts", ("geo", 4, 0.4999995, 2, 7, 0.95, 14, "splitmix"), 5e-06)),
    (BnBSpec(1, n_jobs=6, n_machines=4), ("bnb", 1, 6, 4, "lb1", True, 2e-4)),
    (BnBSpec(3, n_jobs=11, n_machines=10, bound="llrk", warm_start=False),
     ("bnb", 3, 11, 10, "llrk", False, 2e-4)),
    (BnBSpec(5), ("bnb", 5, 10, 10, "lb1", True, 2e-4)),
    (SyntheticSpec(20000), ("synthetic", 20000, 1e-05)),
    (SyntheticSpec(8000, unit_cost=1e-6), ("synthetic", 8000, 1e-06)),
]


@pytest.mark.parametrize("spec,key", CACHE_KEYS,
                         ids=[repr(s) for s, _ in CACHE_KEYS])
def test_cache_keys_are_unchanged(spec, key):
    assert spec.cache_key() == key
    assert AppSpec.from_wire(spec.to_wire()).cache_key() == key


# -- the documents the benchmark and the load generator submit ------------------

def _benchmark_documents() -> list[dict]:
    """The serve mix and the live fleet's ``app=`` of the end-to-end
    benchmark, read from its source without importing it."""
    docs, presets, live_app = [], [], None
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "SERVE_SPECS"):
            docs.extend(ast.literal_eval(node.value))
        elif (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "LiveFleet"):
            presets.extend(c.value for c in ast.walk(node.args[0])
                           if isinstance(c, ast.Constant))
        elif isinstance(node, ast.keyword) and node.arg == "app":
            live_app = node.value
    # the live document is {"kind": "uts", "preset": self.preset}
    assert [k.value for k in live_app.keys] == ["kind", "preset"]
    assert live_app.values[0].value == "uts"
    return docs + [{"kind": "uts", "preset": p} for p in presets]


# labels as the serve report and ``build_app`` gave them before the change
BENCHMARK_LABELS = ["synthetic/20000", "uts/bin_mini", "synthetic/8000",
                    "uts/bin_tiny", "uts/bin_tiny", "uts/bin_large",
                    "uts/bin_tiny", "uts/bin_small"]


def test_benchmark_documents_are_accepted_and_labelled_as_before():
    docs = _benchmark_documents()
    specs = [AppSpec.from_wire(doc) for doc in docs]
    assert [s.label for s in specs] == BENCHMARK_LABELS
    assert [s.to_wire() for s in specs] == docs
    assert [build_app(doc)[1] for doc in docs] == BENCHMARK_LABELS


def test_default_mix_reads_as_before():
    assert parse_mix(DEFAULT_MIX) == [
        {"kind": "synthetic", "units": 20000},
        {"kind": "uts", "preset": "bin_mini"},
        {"kind": "synthetic", "units": 8000}]
    assert parse_mix("bnb:0:6:5, uts:bin_tiny") == [
        {"kind": "bnb", "index": 0, "jobs": 6, "machines": 5},
        {"kind": "uts", "preset": "bin_tiny"}]
    with pytest.raises(SimConfigError):
        parse_mix("bnb:0:6x5")


# -- reading is shallow, building is deep ---------------------------------------

def test_poisoned_spec_reads_and_fails_to_build():
    spec = AppSpec.from_wire(POISON_SPEC)
    assert spec.to_wire() == POISON_SPEC
    assert spec.label == "uts/__poisoned__"
    with pytest.raises(SimConfigError):
        spec.build()


@pytest.mark.parametrize("doc", [
    None, [], {"preset": "bin_tiny"}, {"kind": "sat"}, {"kind": ["uts"]},
    {"kind": "uts"}, {"kind": "uts", "preset": 3},
    {"kind": "bnb"}, {"kind": "bnb", "index": False},
    {"kind": "bnb", "index": 1, "jobs": "x"},
    {"kind": "bnb", "index": 1, "warm_start": 1},
    {"kind": "synthetic", "units": 1.5},
    {"kind": "synthetic", "units": 5, "unit_cost": "1e-5"},
])
def test_malformed_documents_are_rejected(doc):
    with pytest.raises(SimConfigError):
        AppSpec.from_wire(doc)


def test_bnb_defaults_come_from_the_dataclass():
    spec = AppSpec.from_wire({"kind": "bnb", "index": 1})
    assert spec == BnBSpec(1)
    assert spec.label == "bnb/ta21@10x10/lb1"
    app, label = build_app({"kind": "bnb", "index": 1})
    assert label == spec.label
    assert app.instance.n_jobs == app.instance.n_machines == 10


def test_string_form():
    assert AppSpec.parse("bnb:2:7:5") == BnBSpec(2, n_jobs=7, n_machines=5)
    assert AppSpec.parse("bnb:2") == BnBSpec(2)
    assert AppSpec.parse("uts:") == UTSSpec("bin_small")
    assert AppSpec.parse("synthetic:300") == SyntheticSpec(300)
    for bad in ("bnb:", "bnb:1:2:3:4", "synthetic:x", "sat:1", ""):
        with pytest.raises(SimConfigError):
            AppSpec.parse(bad)


def test_bnb_payload_is_computed_once_and_pickled_with_the_spec():
    import pickle
    spec = BnBSpec(1, n_jobs=6, n_machines=4)
    assert "instance" not in vars(spec)
    app = spec.build()
    assert app.instance is spec.instance
    back = pickle.loads(pickle.dumps(spec))
    assert vars(back)["instance"].p == spec.instance.p
    assert back.neh == spec.neh and back == spec and hash(back) == hash(spec)
