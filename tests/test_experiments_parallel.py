"""Tests for the parallel grid runner, app specs and the result cache."""

import pickle

import pytest

from repro.experiments.cache import ResultCache, cell_key, code_fingerprint
from repro.experiments.config import get_scale
from repro.experiments.parallel import (ExperimentGrid, configure,
                                        resolve_jobs, resolve_use_cache,
                                        run_cells)
from repro.experiments.runner import (RunConfig, cell_configs, run_once,
                                      run_trials)
from repro.experiments.specs import BnBSpec, UTSSpec, is_spec
from repro.sim.errors import SimConfigError
from repro.uts.params import PRESETS

UTS_SPEC = UTSSpec("bin_mini")
BNB_SPEC = BnBSpec(5, n_jobs=6, n_machines=5)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# -- specs ---------------------------------------------------------------------

def test_specs_are_callable_factories():
    app = UTS_SPEC()
    assert "UTS" in app.name
    bapp = BNB_SPEC()
    assert bapp.instance.n_jobs == 6 and bapp.warm_start is True


def test_bnb_spec_ships_precomputed_inputs():
    """The matrix and NEH ride the pickle; workers must not recompute."""
    from repro.bnb.neh import neh
    assert BNB_SPEC.neh == neh(BNB_SPEC.instance)
    clone = pickle.loads(pickle.dumps(BNB_SPEC))
    assert clone.instance == BNB_SPEC.instance
    assert clone.neh == BNB_SPEC.neh
    # the shipped NEH feeds the warm start without rerunning the heuristic
    app = clone.build()
    assert app.make_shared().value == BNB_SPEC.neh[0] + 1


def test_is_spec():
    assert is_spec(UTS_SPEC) and is_spec(BNB_SPEC)
    assert not is_spec(lambda: None)
    assert not is_spec(42)


# -- canonical cell expansion --------------------------------------------------

def test_cell_configs_derived_seeds():
    cfg = RunConfig(protocol="TD", n=4, seed=7)
    cells = cell_configs(cfg, 3)
    assert [c.seed for c in cells] == [7, 1007, 2007]
    assert all(c.protocol == "TD" and c.n == 4 for c in cells)
    with pytest.raises(SimConfigError):
        cell_configs(cfg, 0)


# -- jobs / cache resolution ---------------------------------------------------

def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1           # 0 = all cores
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2           # explicit beats env
    configure(jobs=4)
    try:
        assert resolve_jobs() == 4        # configured beats env
    finally:
        configure()                       # reset process-wide defaults
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.raises(SimConfigError):
        resolve_jobs()


def test_resolve_use_cache(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert resolve_use_cache() is True
    assert resolve_use_cache(False) is False
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert resolve_use_cache() is False
    assert resolve_use_cache(True) is True    # explicit beats env
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    assert resolve_use_cache() is True


# -- grid determinism: parallel == serial, bit for bit -------------------------

def _grid_results(spec, protocols, ns, quantum, jobs, trials=2):
    out = []
    for proto in protocols:
        for n in ns:
            cfg = RunConfig(protocol=proto, n=n, quantum=quantum, seed=42)
            ts = run_trials(cfg, spec, trials, jobs=jobs, use_cache=False)
            out.extend(ts.results)
    return out


def test_uts_grid_parallel_bit_identical_to_serial():
    serial = _grid_results(UTS_SPEC, ("TD", "RWS"), (4, 8), 32, jobs=1)
    parallel = _grid_results(UTS_SPEC, ("TD", "RWS"), (4, 8), 32, jobs=2)
    assert serial == parallel      # full dataclass equality, every field
    assert [r.msgs_by_pid for r in serial] == \
           [r.msgs_by_pid for r in parallel]


def test_bnb_grid_parallel_bit_identical_to_serial():
    serial = _grid_results(BNB_SPEC, ("BTD", "MW"), (4,), 16, jobs=1)
    parallel = _grid_results(BNB_SPEC, ("BTD", "MW"), (4,), 16, jobs=2)
    assert serial == parallel
    assert all(r.optimum == serial[0].optimum for r in parallel)
    assert [r.makespan for r in serial] == [r.makespan for r in parallel]


def test_run_cells_preserves_input_order():
    cfgs = [RunConfig(protocol="TD", n=n, quantum=32, seed=s)
            for n, s in ((4, 1), (8, 2), (4, 3), (8, 4))]
    results = run_cells([(c, UTS_SPEC) for c in cfgs], jobs=2,
                        use_cache=False)
    assert [r.n for r in results] == [4, 8, 4, 8]
    expected = [run_once(c, UTS_SPEC()) for c in cfgs]
    assert results == expected


def test_plain_callable_factory_still_works_with_jobs():
    """Closures cannot cross the pool; they run serially, same results."""
    from repro.apps.uts_app import UTSApplication
    factory = lambda: UTSApplication(PRESETS["bin_mini"].params)
    cfg = RunConfig(protocol="RWS", n=4, quantum=32, seed=5)
    ts = run_trials(cfg, factory, 2, jobs=4, use_cache=True)
    ref = run_trials(cfg, factory, 2, jobs=1, use_cache=False)
    assert ts.results == ref.results


def test_grid_progress_reports_every_cell():
    seen = []
    grid = ExperimentGrid(seed=1, default_trials=2, jobs=2, use_cache=False,
                          progress=lambda d, t, label: seen.append((d, t)))
    grid.add("a", UTS_SPEC, protocol="TD", n=4, quantum=32)
    grid.add("b", UTS_SPEC, protocol="RWS", n=4, quantum=32)
    grid.run()
    assert sorted(seen) == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_grid_rejects_duplicate_keys_and_late_adds():
    grid = ExperimentGrid(seed=1, default_trials=1, use_cache=False)
    grid.add("a", UTS_SPEC, protocol="TD", n=4, quantum=32)
    with pytest.raises(SimConfigError):
        grid.add("a", UTS_SPEC, protocol="TR", n=4, quantum=32)
    grid.run()
    with pytest.raises(SimConfigError):
        grid.add("b", UTS_SPEC, protocol="TR", n=4, quantum=32)


# -- result cache --------------------------------------------------------------

def test_cache_hit_returns_bit_identical_result(cache):
    cfg = RunConfig(protocol="BTD", n=6, quantum=32, seed=9)
    first = run_cells([(cfg, UTS_SPEC)], jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    again = run_cells([(cfg, UTS_SPEC)], jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert first == again
    assert first[0] == run_once(cfg, UTS_SPEC())


def test_cache_miss_on_any_config_change(cache):
    base = RunConfig(protocol="BTD", n=6, quantum=32, seed=9)
    key = cell_key(base, UTS_SPEC)
    assert cell_key(base, UTS_SPEC) == key          # stable
    import dataclasses
    for change in ({"quantum": 64}, {"seed": 10}, {"n": 7},
                   {"protocol": "TR"}, {"sharing": "half"},
                   {"handler_cost": 2e-5}, {"speed_spread": 0.2}):
        assert cell_key(dataclasses.replace(base, **change), UTS_SPEC) != key
    assert cell_key(base, BNB_SPEC) != key          # app spec in the key
    assert cell_key(base, UTSSpec("bin_tiny")) != key


def test_cache_survives_corrupt_entries(cache):
    cfg = RunConfig(protocol="TD", n=4, quantum=32, seed=1)
    run_cells([(cfg, UTS_SPEC)], jobs=1, cache=cache)
    (entry,) = cache.root.rglob("*.pkl")
    entry.write_bytes(b"garbage")
    results = run_cells([(cfg, UTS_SPEC)], jobs=1, cache=cache)
    assert results[0] == run_once(cfg, UTS_SPEC())


def test_cache_disabled_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    cfg = RunConfig(protocol="TD", n=4, quantum=32, seed=1)
    run_cells([(cfg, UTS_SPEC)], jobs=1, use_cache=False)
    assert not (tmp_path / "c").exists()
    run_cells([(cfg, UTS_SPEC)], jobs=1, use_cache=True)
    assert len(list((tmp_path / "c").rglob("*.pkl"))) == 1


def test_unwritable_cache_degrades_gracefully(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory")
    broken = ResultCache(blocked / "sub")       # mkdir will fail
    cfg = RunConfig(protocol="TD", n=4, quantum=32, seed=1)
    results = run_cells([(cfg, UTS_SPEC)], jobs=1, cache=broken)
    assert results[0] == run_once(cfg, UTS_SPEC())
    assert broken._broken is True


def test_code_fingerprint_stable_and_in_key():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_trial_stats_via_grid_match_run_trials(cache):
    """ExperimentGrid aggregation == run_trials on the same config."""
    scale = get_scale("micro")
    grid = ExperimentGrid(seed=scale.seed, default_trials=2, cache=cache)
    grid.add("x", UTS_SPEC, protocol="BTD", n=6, quantum=64)
    ts_grid = grid.stats("x")
    ts_ref = run_trials(RunConfig(protocol="BTD", n=6, quantum=64,
                                  seed=scale.seed),
                        UTS_SPEC, 2, jobs=1, use_cache=False)
    assert ts_grid.results == ts_ref.results
    assert ts_grid.t_avg == ts_ref.t_avg
