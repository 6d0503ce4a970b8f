"""Tests for the experiment harness infrastructure (not the experiments)."""

import pytest

from repro.apps.synthetic import SyntheticApplication
from repro.apps.uts_app import UTSApplication
from repro.experiments.config import (SCALES, bnb_app, bnb_instances,
                                      get_scale, uts_app)
from repro.experiments.registry import EXPERIMENTS, ORDER, get_experiment
from repro.experiments.report import (Series, banner, fmt, render_series,
                                      render_table)
from repro.experiments.runner import (PROTOCOLS, RunConfig, TrialStats,
                                      run_trials)
from repro.experiments.seqref import (sequential_optimum, sequential_time,
                                      sequential_units)
from repro.sim.errors import SimConfigError
from repro.uts.params import PRESETS


# -- report rendering ----------------------------------------------------------

def test_fmt():
    assert fmt(None) == "-"
    assert fmt(True) == "yes"
    assert fmt(1234567) == "1,234,567"
    assert fmt(3.14159, 2) == "3.14"
    assert fmt("x") == "x"


def test_render_table_alignment():
    out = render_table(["a", "long_header"], [[1, 2.5], [333, 4.25]],
                       title="t", digits=2)
    lines = out.splitlines()
    assert lines[0] == "t"
    assert "long_header" in lines[1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # rectangular


def test_render_series_merges_x():
    s1 = Series("a")
    s1.add(1, 10.0)
    s1.add(2, 20.0)
    s2 = Series("b")
    s2.add(2, 200.0)
    out = render_series([s1, s2], "n", "y")
    assert "a" in out and "b" in out
    assert "-" in out  # the missing (1, b) cell


def test_banner():
    assert "hello" in banner("hello")


def test_ascii_chart():
    from repro.experiments.report import ascii_chart
    s1 = Series("a")
    s2 = Series("b")
    for x, y1, y2 in [(1, 10.0, 5.0), (2, 8.0, 6.0), (3, 4.0, 9.0)]:
        s1.add(x, y1)
        s2.add(x, y2)
    out = ascii_chart([s1, s2], width=30, height=8, x_label="n",
                      y_label="t", title="T")
    assert "T" in out and "* a" in out and "o b" in out
    assert out.count("|") >= 8
    assert ascii_chart([]) == "(empty chart)"


def test_ascii_chart_flat_series():
    from repro.experiments.report import ascii_chart
    s = Series("flat")
    s.add(1, 5.0)
    s.add(2, 5.0)
    out = ascii_chart([s], width=20, height=4)
    assert "*" in out  # constant series renders without dividing by zero


# -- runner ----------------------------------------------------------------------

def test_runconfig_validation():
    with pytest.raises(SimConfigError):
        RunConfig(protocol="NOPE")
    with pytest.raises(SimConfigError):
        RunConfig(protocol="TD", n=0)
    with pytest.raises(SimConfigError):
        RunConfig(protocol="MW", n=1)
    for quantum in (0, -64):
        # a zero quantum computes nothing and deadlocks at t=0
        with pytest.raises(SimConfigError):
            RunConfig(protocol="TD", n=4, quantum=quantum)
    from repro.runtime.supervisor import LiveConfig
    from repro.serve.daemon import ServeConfig
    for make in (LiveConfig, ServeConfig):
        with pytest.raises(SimConfigError):
            make(quantum=0)
    assert set(PROTOCOLS) == {"TD", "TR", "BTD", "BTR", "RWS", "MW", "AHMW",
                              "LIFELINE"}


def test_run_trials_uses_distinct_seeds():
    app_factory = lambda: UTSApplication(PRESETS["bin_tiny"].params)
    cfg = RunConfig(protocol="RWS", n=8, quantum=64, seed=5)
    ts = run_trials(cfg, app_factory, trials=3)
    outcomes = [(r.makespan, r.total_msgs) for r in ts.results]
    assert len(set(outcomes)) > 1  # different seeds, different runs
    assert ts.t_min <= ts.t_avg <= ts.t_max
    assert ts.t_std >= 0


def test_run_trials_validation():
    cfg = RunConfig(protocol="TD", n=4)
    with pytest.raises(SimConfigError):
        run_trials(cfg, lambda: SyntheticApplication(10), trials=0)


def test_trialstats_of_single():
    from repro.experiments.runner import ExperimentResult
    r = ExperimentResult(protocol="TD", n=2, makespan=1.0,
                         work_done_time=1.0, total_units=1, total_msgs=0,
                         total_steals=0, msgs_by_pid=[0, 0])
    ts = TrialStats.of([r])
    assert ts.t_std == 0.0 and ts.t_avg == 1.0


def test_efficiency_helper():
    from repro.experiments.runner import ExperimentResult
    r = ExperimentResult(protocol="TD", n=4, makespan=2.0,
                         work_done_time=2.0, total_units=1, total_msgs=0,
                         total_steals=0, msgs_by_pid=[])
    assert r.efficiency(t_seq=8.0) == 1.0
    assert r.efficiency(t_seq=8.0, workers=2) == 2.0


# -- scales & registry ---------------------------------------------------------------

def test_scales_registry():
    assert set(SCALES) == {"micro", "quick", "default", "full"}
    assert get_scale("quick").trials == 2
    with pytest.raises(SimConfigError):
        get_scale("huge")


def test_experiment_registry():
    assert list(ORDER) == ["table1", "fig1", "fig2", "table2", "fig3",
                           "fig4", "fig5", "granularity", "faults"]
    assert set(ORDER) == set(EXPERIMENTS)
    for exp_id in ORDER:
        assert callable(get_experiment(exp_id))
    with pytest.raises(SimConfigError):
        get_experiment("fig9")


def test_scale_apps():
    scale = get_scale("quick")
    instances = bnb_instances(scale)
    assert len(instances) == 10
    assert instances[0].n_jobs == scale.bnb_std[0]
    app = bnb_app(scale, 1)
    assert app.warm_start is True
    big = bnb_app(scale, 1, big=True)
    assert big.instance.n_jobs == scale.bnb_big[0]
    assert uts_app(scale).params == PRESETS[scale.uts_main].params


# -- sequential references ----------------------------------------------------------

def test_seqref_uts_exact():
    app = UTSApplication(PRESETS["bin_tiny"].params)
    assert sequential_units(app) == PRESETS["bin_tiny"].nodes
    assert sequential_time(app) == PRESETS["bin_tiny"].nodes * app.unit_cost


def test_seqref_bnb_memoised_and_consistent():
    scale = get_scale("quick")
    app = bnb_app(scale, 2)
    u1 = sequential_units(app)
    u2 = sequential_units(bnb_app(scale, 2))
    assert u1 == u2 > 0
    opt = sequential_optimum(app)
    from repro.bnb.engine import solve_bruteforce
    assert opt == solve_bruteforce(app.instance)[0]


def test_seqref_rejects_unknown_app():
    with pytest.raises(SimConfigError):
        sequential_units(SyntheticApplication(10))


def test_cli_list(capsys):
    from repro.experiments.__main__ import main
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig5" in out and "granularity" in out


def test_report_summary_jsonable():
    import json
    from repro.experiments.base import ExperimentReport
    rep = ExperimentReport(exp_id="x", title="t", expectation="e",
                           sections=["s1", "s2"])
    rep.wall_seconds = 1.234
    encoded = json.dumps(rep.summary())
    decoded = json.loads(encoded)
    assert decoded["experiment"] == "x"
    assert decoded["sections"] == ["s1", "s2"]
    assert decoded["wall_seconds"] == 1.23


def test_cli_requires_ids(capsys):
    from repro.experiments.__main__ import main
    with pytest.raises(SystemExit):
        main([])


def test_cli_trials_validation():
    from repro.experiments.__main__ import main
    with pytest.raises(SystemExit):
        main(["table1", "--trials", "0"])


def test_scale_replace_for_overrides():
    import dataclasses
    s = get_scale("quick")
    s2 = dataclasses.replace(s, trials=7, seed=99)
    assert s2.trials == 7 and s2.seed == 99
    assert s.trials == 2  # original untouched (frozen)
