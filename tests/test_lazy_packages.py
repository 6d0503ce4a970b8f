"""The package surfaces are lazy (``repro._lazy``) and say the same thing.

Every name a package exported when its ``__init__`` imported eagerly -
:data:`PARENT_ALL`, the ``__all__`` lists of that commit - is still
importable from the same place and is the very object its defining
submodule holds; the rest is what PEP 562 can get wrong: ``dir``, star
imports, the error for a name that does not exist, submodules reached as
attributes, and pickles that name their classes by module path.
"""

import copy
import importlib
import multiprocessing
import pkgutil
import sys

import pytest

from test_import_budget import probe

PARENT_ALL = {
    "repro":
        "BnBApplication BnBEngine BridgedTreeOverlay ExperimentResult "
        "FlowshopInstance OCLBConfig OverlayWorker RunConfig Simulator "
        "SyntheticApplication TreeOverlay TrialStats UTSApplication UTSParams "
        "WorkerConfig __version__ add_bridges deterministic_tree "
        "get_uts_preset grid5000 random_tree run_once run_trials "
        "scaled_instance taillard_instance uniform_network",
    "repro.apps":
        "Application BNB_UNIT_COST BnBApplication ProcessOutcome "
        "SyntheticApplication SyntheticWork UTSApplication UTS_UNIT_COST",
    "repro.baselines":
        "AHMWNode AHMW_DEGREE LifelineWorker MWMaster MWWorker RWSWorker "
        "build_ahmw_tree detection_tree",
    "repro.bnb":
        "BnBEngine BnBWork BoundState ExploreResult FlowshopInstance INF "
        "JohnsonPairBound LowerBound MaxBound OneMachineBound TA_20x20_SEEDS "
        "TrivialBound digits_to_position factorials get_bound johnson_order "
        "make_instance permutation_to_position position_to_digits "
        "position_to_permutation prefix_block processing_times "
        "scaled_instance solve_bruteforce taillard_instance tree_leaves "
        "two_machine_makespan two_machine_optimal unif",
    "repro.core":
        "BOUND BRIDGE DOWN OCLBConfig OverlayWorker REQ TerminationWaves UP "
        "WORK WorkerConfig WorkerProcess",
    "repro.experiments":
        "BnBSpec EXPERIMENTS ExperimentGrid ExperimentReport ExperimentResult "
        "ORDER PROTOCOLS ResultCache RunConfig SCALES Scale TrialStats "
        "UTSSpec build_workers cell_configs get_experiment get_scale "
        "run_cells run_once run_trials",
    "repro.obs":
        "Counter Gauge Histogram LATENCY_EDGES LoadedTrace METRICS "
        "MetricsRegistry REPORT_SCHEMA_VERSION RunReport SIZE_EDGES "
        "TRACE_SCHEMA_VERSION TraceWriter build_report export_trace "
        "load_entropy load_trace steal_matrix",
    "repro.overlay":
        "BridgedTreeOverlay ConvergecastProcess OverlaySummary SizeService "
        "TreeOverlay add_bridges chain_tree degree_histogram "
        "deterministic_tree diameter from_parents random_tree star_tree "
        "summarize",
    "repro.runtime":
        "LiveConfig LiveResult run_live",
    "repro.serve":
        "ServeConfig ServeDaemon serve_main",
    "repro.sim":
        "ClusterSpec Event EventQueue FaultController FaultPlan HEADER_BYTES "
        "Message NetworkModel ProcessStats RngStream RunStats SimConfigError "
        "SimDeadlockError SimError SimProcess SimRuntimeError Simulator "
        "derive_seed grid5000 mix64 sized spawn_numpy splitmix64 "
        "uniform_network",
    "repro.uts":
        "PAPER_INSTANCES PRESETS TreeStats UTSParams UTSPreset UTSWork "
        "child_counts child_states count_tree decide_unit expand get_preset "
        "nth_child root_frontier root_state",
    "repro.work":
        "LinkKind PROPORTIONAL STEAL_HALF ShareContext SharingPolicy WorkItem "
        "clamp_fraction fixed_fraction get_policy steal_k",
}

PACKAGES = sorted(PARENT_ALL)


def _submodules(pkg):
    """Every module below ``pkg`` but its entry points (``__main__``)."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + ".")
            if not info.name.endswith("__main__")]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_parent_export_is_the_defining_modules_object(name):
    pkg = importlib.import_module(name)
    exported = PARENT_ALL[name].split()
    assert sorted(pkg.__all__) == sorted(exported)
    assert set(dir(pkg)) >= set(exported)
    homes = _submodules(pkg)
    for public in exported:
        obj = getattr(pkg, public)
        assert vars(pkg)[public] is obj          # cached on first access
        if public != "__version__":
            assert any(obj is value for home in homes
                       for value in vars(home).values()), public


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_exactly_the_exports(name):
    scope: dict = {}
    exec(f"from {name} import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(PARENT_ALL[name].split())


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_attribute_is_an_attribute_error(name):
    pkg = importlib.import_module(name)
    for missing in ("no_such_name", "_private", "__wrapped__"):
        with pytest.raises(AttributeError, match=missing):
            getattr(pkg, missing)
        assert not hasattr(pkg, missing)
    with pytest.raises(ImportError):   # the statement form keeps its error
        exec(f"from {name} import no_such_name")


def test_submodules_resolve_as_attributes_without_an_import():
    assert probe("import repro\n"
                 "assert repro.sim.engine.Simulator is repro.Simulator\n"
                 "assert repro.get_uts_preset is repro.uts.params.get_preset\n"
                 "import repro.sim.errors as e\n"
                 "assert repro.sim.SimError is e.SimError\n"
                 "print(json.dumps('resolved'))") == "resolved"


def test_a_submodule_that_fails_to_import_says_so(tmp_path, monkeypatch):
    """Only "no such submodule" becomes ``AttributeError``: a submodule
    that exists and lacks a dependency keeps its ``ImportError``."""
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro._lazy import lazy\n"
        "__getattr__, __dir__, __all__ = lazy(__name__, {'.a': 'x y=x'})\n")
    (pkg / "a.py").write_text("x = object()\n")
    (pkg / "broken.py").write_text("import no_such_dependency_anywhere\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import lazypkg
        assert lazypkg.__all__ == ["x", "y"] and lazypkg.y is lazypkg.a.x
        with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
            lazypkg.broken
        with pytest.raises(AttributeError):
            lazypkg.absent
    finally:
        for module in [m for m in sys.modules if m.startswith("lazypkg")]:
            del sys.modules[module]


def test_configs_and_specs_pickle_through_a_spawned_pool():
    from repro.experiments.runner import RunConfig
    from repro.experiments.specs import BnBSpec, UTSSpec

    sent = [RunConfig(protocol="TD", n=8, seed=3),
            UTSSpec("bin_tiny"),
            BnBSpec(1, n_jobs=6, n_machines=4)]
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        back = pool.map(copy.copy, sent)
    assert back[0].protocol == "TD" and back[0].n == 8 and back[0].seed == 3
    assert back[1] == sent[1] and back[2] == sent[2]
    assert [type(b) for b in back] == [type(s) for s in sent]
    assert back[2].instance.p == sent[2].instance.p
    assert back[2].neh == sent[2].neh
