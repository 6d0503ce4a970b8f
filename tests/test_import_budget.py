"""What each process role imports, counted - never timed.

Every spawn pays for its import graph (docs/runtime.md, "Start-up"), so
each role has a budget, and a role that serves jobs must have loaded
everything a job needs *before* it says ``hello``: an import after the
start frame is start-up billed as run time.  One fresh interpreter per
role; the probe prints what ``sys.modules`` holds.
"""

import json
import os
import subprocess
import sys

import repro
from repro.experiments.runner import PROTOCOLS
from repro.serve.protocol import APP_KINDS, SERVE_PROTOCOLS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SPECS = {"uts": {"kind": "uts", "preset": "bin_tiny"},
         "bnb": {"kind": "bnb", "index": 1, "jobs": 6, "machines": 4},
         "synthetic": {"kind": "synthetic", "units": 100}}

#: shared by the probes: the loaded ``repro``/``numpy`` modules, and one job
#: built the way ``Reactor.run_job`` builds it
PRELUDE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("repro", "numpy"))

def build(spec, protocol):
    from repro.experiments.runner import worker_factory
    from repro.runtime.worker import build_app, build_run_config
    app, _label = build_app(spec)
    rcfg = build_run_config({"run": {"protocol": protocol, "n": 2}})
    worker_factory(rcfg, app)(0)
"""


def probe(body: str):
    """Run ``body`` after the prelude in a fresh interpreter; returns the
    JSON document it printed last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PRELUDE + body], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def under(modules, *prefixes):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_bare_import_loads_no_numpy_and_almost_nothing():
    mods = probe("import repro\nprint(json.dumps(loaded()))")
    assert not under(mods, "numpy")
    assert len(under(mods, "repro")) < 5, mods


def test_uts_btd_worker_budget():
    """``main()`` has preloaded the job by the time it dials its owner,
    and building the job afterwards imports nothing more."""
    cfg = {"pid": 0, "endpoint": {}, "app": SPECS["uts"],
           "run": {"protocol": "BTD", "n": 2}}
    doc = probe(f"""
import repro.runtime.worker as w
cfg = {cfg!r}

def dialled(_endpoint):
    before = loaded()
    build(cfg["app"], "BTD")
    print(json.dumps({{"at_dial": before, "after_build": loaded()}}))
    raise SystemExit(0)

w.connect_endpoint = dialled
w.main([json.dumps(cfg)])
""")
    mods = doc["at_dial"]
    assert doc["after_build"] == mods
    assert under(mods, "repro.apps.uts_app", "repro.core.oclb")
    assert not under(
        mods, "repro.bnb", "repro.baselines", "repro.serve",
        "repro.sim.engine", "repro.sim.faults", "repro.sim.network",
        "repro.sim.shard", "repro.experiments.base",
        "repro.experiments.cache", "repro.experiments.config",
        "repro.experiments.parallel", "repro.experiments.registry",
        "repro.experiments.specs", "repro.runtime.supervisor",
        "repro.runtime.fleet", "repro.obs.report")
    assert len(under(mods, "repro")) <= 45, len(under(mods, "repro"))


def test_preload_covers_every_kind_and_protocol():
    """The table behind ``preload`` names what ``build_app`` and
    ``worker_factory`` import, for every kind and every protocol: after
    ``preload(name)`` building adds nothing.  Least inclusive first, so
    that an earlier preload cannot stand in for a missing entry."""
    steps = ([(k, SPECS[k], "TD") for k in ("synthetic", "uts", "bnb")]
             + [(p, SPECS["bnb"], p)   # MW and AHMW only take B&B
                for p in ("LIFELINE", "RWS", "MW", "AHMW")
                + tuple(p for p in PROTOCOLS if p.endswith(("TD", "TR")))])
    assert {s[0] for s in steps} == set(APP_KINDS) | set(PROTOCOLS)
    added = probe(f"""
import repro.runtime.worker as w
added = {{}}
for name, spec, protocol in {steps!r}:
    w.preload(name)
    before = set(loaded())
    build(spec, protocol)
    added[name] = sorted(set(loaded()) - before)
print(json.dumps(added))
""")
    assert added == {s[0]: [] for s in steps}


def test_serve_daemon_loads_no_kernel_and_no_harness():
    mods = probe("import repro.serve.__main__\nprint(json.dumps(loaded()))")
    assert under(mods, "repro.serve.daemon")
    assert not under(mods, "repro.bnb", "repro.baselines",
                     "repro.sim.engine", "repro.experiments.parallel")


def test_warm_jobhost_imports_nothing_for_a_job():
    """The real entry path (``python -m repro.serve.jobhost`` without a
    configuration: the preload, then a usage error), then every kind
    ``build_app`` accepts and every servable protocol."""
    added = probe(f"""
import runpy
sys.argv = ["jobhost"]
try:
    runpy.run_module("repro.serve.jobhost", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 2, exc.code
before = set(loaded())
for spec in {list(SPECS.values())!r}:
    for protocol in {SERVE_PROTOCOLS!r}:
        build(spec, protocol)
print(json.dumps(sorted(set(loaded()) - before)))
""")
    assert added == []
