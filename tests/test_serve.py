"""Service layer (``repro.serve``): the resilience contracts, in-process.

One daemon with two warm lanes is shared by most tests (boot is the
expensive part); the tests then hit the newline-JSON API exactly like an
external client would and check the properties ``docs/serve.md``
promises:

* correct per-job results, concurrently, on *warm* fleets (same worker
  OS pids across jobs — no per-run spawning);
* poisoned specs are admitted, fail at build time, and land in the
  dead-letter store with a traceback — the lane stays in service;
* a full queue yields a structured ``busy`` rejection (load leveling +
  admission control), never a hang;
* graceful drain completes every accepted job, rejects new ones with
  ``draining``, and ``resume`` re-opens admission;
* a rolling restart recycles every lane without losing accepted jobs.
"""

import shutil
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import POISON_SPEC
from repro.sim.errors import SimConfigError
from repro.uts.params import PRESETS
from repro.uts.sequential import count_tree

TINY_NODES = count_tree(PRESETS["bin_tiny"].params).nodes
UTS_TINY = {"kind": "uts", "preset": "bin_tiny"}
SYN = {"kind": "synthetic", "units": 4000}


def _wait_idle(d, timeout=60.0):
    """Block until every lane finished booting (fleet snapshots taken
    before the handshake show ospid=None)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        lanes = [ln.snapshot() for ln in d._lanes]
        if all(ln["state"] == "idle"
               and all(w["ospid"] for w in ln["workers"])
               for ln in lanes):
            return
        time.sleep(0.05)
    raise AssertionError(f"lanes never went idle: {lanes}")


@pytest.fixture(scope="module")
def daemon():
    d = ServeDaemon(ServeConfig(lanes=2, n=2, queue_limit=16,
                                job_timeout_s=60.0))
    d.start()
    _wait_idle(d)
    yield d
    d.stop()
    shutil.rmtree(d.run_dir, ignore_errors=True)


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as c:
        yield c


# -- config & admission-side validation ---------------------------------------

def test_config_rejects_nonsense():
    with pytest.raises(SimConfigError):
        ServeConfig(protocol="nope")
    with pytest.raises(SimConfigError):
        ServeConfig(lanes=0)
    with pytest.raises(SimConfigError):
        ServeConfig(n=1)
    with pytest.raises(SimConfigError):
        ServeConfig(queue_limit=0)
    with pytest.raises(SimConfigError):
        ServeConfig(lanes=2, max_inflight=3)


def test_bad_request_and_unknown_op(client):
    resp = client.request("submit", app={"kind": "uts"})   # missing preset
    assert resp["ok"] is False and resp["error"] == "bad-request"
    resp = client.request("submit", app=dict(SYN), run={"protocol": "??"})
    assert resp["ok"] is False and resp["error"] == "bad-request"
    resp = client.request("no_such_op")
    assert resp["ok"] is False and resp["error"] == "unknown-op"
    resp = client.request("status", job_id="j999999")
    assert resp["ok"] is False and resp["error"] == "unknown-job"


# -- request fields, through the op table of a daemon with no lanes -------------

@pytest.fixture()
def bare():
    """A daemon that never started: ops run, nothing boots or listens."""
    return ServeDaemon(ServeConfig(lanes=1, n=2))


def _op(d, op, **fields):
    return d._dispatch({"op": op, **fields})


@pytest.mark.parametrize("op", ["submit", "drain", "shutdown"])
@pytest.mark.parametrize("bad", ["soon", None, [5], True, float("nan"),
                                 float("inf"), -1])
def test_non_numeric_timeout_is_a_bad_request(bare, op, bad):
    fields = {"app": dict(SYN)} if op == "submit" else {"wait": False}
    resp = _op(bare, op, timeout_s=bad, **fields)
    assert resp["ok"] is False and resp["error"] == "bad-request", resp
    assert "timeout_s" in resp["detail"]
    assert bare._accepted == 0 and not bare._shutdown_ev.is_set()


def test_numeric_timeouts_are_accepted(bare):
    assert _op(bare, "submit", app=dict(SYN), timeout_s=5)["ok"] is True
    assert _op(bare, "submit", app=dict(SYN), timeout_s=2.5)["ok"] is True
    resp = _op(bare, "submit", app=dict(SYN), timeout_s=0)
    assert resp["error"] == "bad-request"         # out of (0, 3600]
    assert [j.timeout_s for j in bare._queue] == [5.0, 2.5]
    assert _op(bare, "drain", wait=False, timeout_s=1)["ok"] is True


@pytest.mark.parametrize("op", ["status", "result", "report"])
@pytest.mark.parametrize("bad", [["j000001"], {"id": "j000001"}, 1, None])
def test_non_string_job_id_is_a_bad_request(bare, op, bad):
    resp = _op(bare, op, job_id=bad)
    assert resp["ok"] is False and resp["error"] == "bad-request", resp
    assert "job_id" in resp["detail"]
    resp = _op(bare, op, job_id="j999999")
    assert resp["ok"] is False and resp["error"] == "unknown-job", resp


def test_dead_letters_limit(bare):
    for i in range(5):
        bare._dead_letters.append({"job_id": f"j{i}"})
    ids = lambda resp: [r["job_id"] for r in resp["dead_letters"]]  # noqa
    assert _op(bare, "dead_letters", limit=0) == {
        "ok": True, "count": 0, "dead_letters": []}
    assert ids(_op(bare, "dead_letters", limit=2)) == ["j3", "j4"]
    assert ids(_op(bare, "dead_letters", limit=9)) == [
        "j0", "j1", "j2", "j3", "j4"]
    assert _op(bare, "dead_letters")["count"] == 5          # default 50
    for bad in (-2, 1.5, "3", True, None):
        resp = _op(bare, "dead_letters", limit=bad)
        assert resp["ok"] is False and resp["error"] == "bad-request", bad


def test_booleans_are_not_integers(bare):
    for app in ({"kind": "synthetic", "units": True},
                {"kind": "bnb", "index": False}):
        resp = _op(bare, "submit", app=app)
        assert resp["error"] == "bad-request", app
    for key in ("quantum", "seed", "dmax"):
        resp = _op(bare, "submit", app=dict(SYN), run={key: True})
        assert resp["error"] == "bad-request", key
    for run in ({"quantum": 0}, {"dmax": -3}, {"quantum": 0, "dmax": -3}):
        resp = _op(bare, "submit", app=dict(SYN), run=run)
        assert resp["error"] == "bad-request", run
    assert _op(bare, "submit", app={"kind": "bnb", "index": 1},
               run={"seed": 3})["ok"] is True
    assert bare._accepted == 1


def test_known_app_fields_are_typed_at_admission(bare):
    """A B&B spec without ``jobs``/``machines`` takes the spec's defaults
    (it builds); one whose ``jobs`` is not an integer is a bad request,
    not a dead letter."""
    from repro.runtime.worker import build_app

    app, label = build_app({"kind": "bnb", "index": 1})
    assert label == "bnb/ta21@10x10/lb1" and app.instance.n_jobs == 10
    for bad, key in (({"kind": "bnb", "index": 1, "jobs": "x"}, "jobs"),
                     ({"kind": "bnb", "index": 1, "machines": 2.5},
                      "machines"),
                     ({"kind": "uts", "preset": "bin_tiny",
                       "unit_cost": "cheap"}, "unit_cost")):
        resp = _op(bare, "submit", app=bad)
        assert resp["error"] == "bad-request", bad
        assert repr(key) in resp["detail"]
    assert bare._accepted == 0


# -- warm-fleet execution ------------------------------------------------------

def test_concurrent_jobs_on_warm_lanes(client):
    """Two jobs in flight at once, each with the right answer, and the
    fleet's worker processes survive across jobs (warm reuse)."""
    before = client.fleet()
    pids_before = {ln["lane"]: sorted(w["ospid"] for w in ln["workers"])
                   for ln in before["lanes"]}

    subs = [client.submit(UTS_TINY), client.submit(SYN)]
    assert all(s["ok"] for s in subs)
    st_uts = client.wait(subs[0]["job_id"], timeout=90.0)
    st_syn = client.wait(subs[1]["job_id"], timeout=90.0)
    assert st_uts["state"] == "done" and st_syn["state"] == "done"
    assert st_uts["total_units"] == TINY_NODES
    assert st_syn["total_units"] == SYN["units"]
    assert st_uts["queue_s"] >= 0 and st_uts["exec_s"] > 0

    # with 2 idle lanes and 2 simultaneous submissions, the jobs ran in
    # parallel on distinct bulkheads
    lanes_used = {client.status(s["job_id"])["lane"] for s in subs}
    assert len(lanes_used) == 2

    after = client.fleet()
    pids_after = {ln["lane"]: sorted(w["ospid"] for w in ln["workers"])
                  for ln in after["lanes"]}
    assert pids_after == pids_before            # nobody was respawned
    assert all(ln["restarts"] == 0 for ln in after["lanes"])

    # the full observability report rides along
    rep = client.report(subs[0]["job_id"])
    assert rep["ok"] and rep["report"]["meta"]["serve"] is True


def test_served_and_one_shot_reports_cannot_drift(client):
    """A served job and a one-shot ``run_live`` of the same spec and seed
    go through the same reactor, the same fleet and the one
    ``assemble()``: the two run reports have the same shape section by
    section, and both count exactly the sequential tree."""
    from repro.obs.report import build_report
    from repro.runtime.supervisor import LiveConfig, run_live

    sub = client.submit(UTS_TINY, run={"seed": 17})
    assert client.wait(sub["job_id"], timeout=90.0)["state"] == "done"
    served = client.report(sub["job_id"])["report"]

    cfg = LiveConfig(protocol="BTD", n=2, app=UTS_TINY, seed=17,
                     timeout_s=60.0)
    live = run_live(cfg)
    one_shot = build_report(cfg.run_config(), live.result, live.stats,
                            metrics=live.metrics, app="uts/bin_tiny",
                            links=live.links).to_json()

    assert served["totals"]["work_units"] == TINY_NODES
    assert one_shot["totals"]["work_units"] == TINY_NODES
    # set-up is the owners' to report as well: a fleet that lives for one
    # run has two gauges for it, a lane has ``boot_s`` (the ``fleet`` op)
    for gauge in ("live.handshake_s", "live.reap_s"):
        assert one_shot["metrics"].pop(gauge)["value"] > 0.0
    # both reactors count their turns, and compute at most a slice in each
    for report in (served, one_shot):
        metrics = report["metrics"]
        assert (0 < metrics["compute.quanta"]["value"]
                <= metrics["reactor.turns"]["value"])

    def shape(report):
        # meta is the owners' to fill
        return {name: (sorted(sec) if isinstance(sec, dict)
                       else sorted(sec[0]) if isinstance(sec, list) and sec
                       else type(sec).__name__)
                for name, sec in report.items() if name != "meta"}
    assert shape(served) == shape(one_shot)
    assert set(served) == set(one_shot)
    # a lane's hosts exchange the job's frames among themselves, as a
    # one-shot fleet's workers do: both reports carry the links they counted
    for report in (served, one_shot):
        assert report["links"]
        assert all(e["src"] != e["dst"] for e in report["links"])


def test_one_warm_lane_takes_every_kind_in_turn():
    """UTS, then B&B, then synthetic on the *same two* hosts (one lane).
    A host loads every application before ``hello`` and its codec meets
    the B&B work class at the first piece it encodes or decodes - the
    job must still find the sequential optimum, and a kind must not
    depend on which kind ran before it."""
    from repro.runtime.worker import build_app

    bnb = {"kind": "bnb", "index": 1, "jobs": 8, "machines": 5}
    d = ServeDaemon(ServeConfig(lanes=1, n=2, job_timeout_s=60.0))
    d.start()
    try:
        _wait_idle(d)
        with ServeClient(d.address) as c:
            before = c.fleet()["lanes"][0]
            done = [c.wait(c.submit(spec)["job_id"], timeout=90.0)
                    for spec in (UTS_TINY, bnb, SYN)]
            labels = [c.report(st["job_id"])["report"]["meta"]["app"]
                      for st in done]
            after = c.fleet()["lanes"][0]
    finally:
        d.stop()
        shutil.rmtree(d.run_dir, ignore_errors=True)
    assert [st["state"] for st in done] == ["done"] * 3, done
    assert done[0]["total_units"] == TINY_NODES
    assert done[1]["optimum"] == build_app(bnb)[0].engine.solve()[0]
    assert done[1]["total_units"] > 0
    assert done[2]["total_units"] == SYN["units"]
    # the label a host's trace carries is the label of the served report
    assert labels == [build_app(spec)[1] for spec in (UTS_TINY, bnb, SYN)]
    assert labels[1] == "bnb/ta21@8x5/lb1"
    assert after["workers"] == before["workers"] and after["restarts"] == 0
    assert after["jobs_run"] == 3
    # the lane says what its boot cost (docs/serve.md, the ``fleet`` op)
    assert 0.0 < before["boot_s"] == after["boot_s"] < 60.0


def test_poison_spec_dead_letters_and_lane_survives(client):
    resp = client.submit(POISON_SPEC)
    assert resp["ok"], "poison must pass admission (fails at build time)"
    st = client.wait(resp["job_id"], timeout=60.0)
    assert st["state"] == "dead"
    assert "__poisoned__" in st["error"]

    dl = client.dead_letters()
    assert dl["count"] >= 1
    rec = next(r for r in dl["dead_letters"]
               if r["job_id"] == resp["job_id"])
    assert rec["app"] == POISON_SPEC
    assert rec["traceback"]                      # API exposes the traceback

    # the lane that hit the poison is still in service
    again = client.submit(SYN)
    assert client.wait(again["job_id"], timeout=90.0)["state"] == "done"


# -- drain / resume / rolling restart -----------------------------------------

def test_graceful_drain_completes_accepted_then_rejects(client):
    subs = [client.submit(SYN) for _ in range(4)]
    assert all(s["ok"] for s in subs)
    resp = client.drain(wait=True, timeout_s=120.0)
    assert resp["drained"] is True
    assert resp["queue_depth"] == 0 and resp["running"] == 0
    for s in subs:                               # zero loss
        assert client.status(s["job_id"])["state"] == "done"

    rej = client.submit(SYN)
    assert rej["ok"] is False and rej["error"] == "draining"

    assert client.resume()["draining"] is False
    ok = client.submit(SYN)
    assert client.wait(ok["job_id"], timeout=90.0)["state"] == "done"


def test_rolling_restart_recycles_every_lane_zero_loss(client):
    subs = [client.submit(SYN) for _ in range(3)]
    resp = client.restart()
    assert resp["ok"] is True
    assert sorted(resp["restarted"]) == [0, 1] and not resp["failed"]
    for s in subs:                               # accepted before/while
        assert client.wait(s["job_id"], timeout=90.0)["state"] == "done"
    fleet = client.fleet()
    assert all(ln["restarts"] >= 1 for ln in fleet["lanes"])
    # service is still healthy after the rebuild
    ok = client.submit(UTS_TINY)
    assert client.wait(ok["job_id"], timeout=90.0)["state"] == "done"


# -- admission control under pressure -----------------------------------------

def test_full_queue_rejects_busy_with_backpressure_hint():
    d = ServeDaemon(ServeConfig(lanes=1, n=2, queue_limit=1,
                                max_inflight=1, job_timeout_s=60.0))
    d.start()
    try:
        with ServeClient(d.address) as c:
            slow = {"kind": "synthetic", "units": 300_000}
            resps = [c.submit(slow) for _ in range(5)]
            busy = [r for r in resps if not r["ok"]]
            accepted = [r for r in resps if r["ok"]]
            assert busy, "queue_limit=1 must shed some of 5 instant submits"
            for r in busy:
                assert r["error"] == "busy"
                assert r["queue_limit"] == 1
                assert r["queue_depth"] >= 1
                assert r["retry_after_s"] > 0
            assert c.stats()["rejected_busy"] == len(busy)
            for r in accepted:                   # the rest still complete
                assert c.wait(r["job_id"], timeout=120.0)["state"] == "done"
    finally:
        d.stop()
        shutil.rmtree(d.run_dir, ignore_errors=True)
