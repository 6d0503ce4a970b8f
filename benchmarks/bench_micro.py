"""Micro-benchmarks of the substrates (throughput numbers for README)."""

import numpy as np

from repro.bnb.engine import BnBEngine
from repro.bnb.interval import position_to_permutation, tree_leaves
from repro.bnb.johnson import johnson_order, two_machine_optimal
from repro.bnb.state import BoundState
from repro.bnb.taillard import scaled_instance
from repro.bnb.work import BnBWork
from repro.overlay.bridges import add_bridges
from repro.overlay.tree import deterministic_tree
from repro.sim.events import EventQueue
from repro.uts.rng import child_states, decide_unit
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams


def test_event_queue_throughput(benchmark):
    """push+pop rate of the simulator core."""
    def run():
        q = EventQueue()
        noop = lambda: None
        for i in range(20_000):
            q.push(float(i % 97), i, noop)
        while q.pop() is not None:
            pass
        return q.fired

    assert benchmark(run) == 20_000


def test_uts_expansion_rate(benchmark):
    """vectorised UTS node expansions (nodes/second ~ millions)."""
    params = UTSParams(b0=2000, q=0.49, m=2, root_seed=5)

    def run():
        return count_tree(params, max_nodes=5_000_000).nodes

    nodes = benchmark(run)
    assert nodes > 100_000


def test_uts_child_hashing(benchmark):
    states = np.arange(100_000, dtype=np.uint64)
    counts = np.full(100_000, 2, dtype=np.int64)

    def run():
        u = decide_unit(states)
        kids = child_states(states, counts)
        return len(kids) + int(u.sum())

    assert benchmark(run) > 0


def test_bnb_engine_rate(benchmark):
    """pure-Python B&B exploration (bound evaluations/second)."""
    inst = scaled_instance(1, n_jobs=10, n_machines=10)
    engine = BnBEngine(inst, bound="lb1")

    def run():
        work = BnBWork.full_tree(10)
        shared = BoundState()
        return engine.explore(work, shared, 20_000).nodes

    assert benchmark(run) >= 20_000


def test_bnb_llrk_rate(benchmark):
    """vectorised LLRK bound kernel through the full engine loop."""
    inst = scaled_instance(1, n_jobs=10, n_machines=10)
    engine = BnBEngine(inst, bound="llrk")

    def run():
        work = BnBWork.full_tree(10)
        shared = BoundState()
        return engine.explore(work, shared, 20_000).nodes

    assert benchmark(run) >= 20_000


def test_interval_decode(benchmark):
    n = 20
    positions = [tree_leaves(n) // 7 * k for k in range(7)]

    def run():
        return sum(position_to_permutation(p, n)[0] for p in positions)

    benchmark(run)


def test_johnson_bound(benchmark):
    rng = np.random.default_rng(3)
    a = rng.integers(1, 100, 20).tolist()
    b = rng.integers(1, 100, 20).tolist()

    def run():
        return two_machine_optimal(a, b)

    assert benchmark(run) > 0
    assert len(johnson_order(a, b)) == 20


def test_overlay_construction(benchmark):
    def run():
        tree = deterministic_tree(1000, 10)
        overlay = add_bridges(tree, seed=1)
        return overlay.n

    assert benchmark(run) == 1000


def test_neh_heuristic(benchmark):
    from repro.bnb.neh import neh
    from repro.bnb.taillard import taillard_instance
    inst = taillard_instance(1)  # the real 20x20 Ta21

    def run():
        return neh(inst)[0]

    value = benchmark(run)
    assert value > 0


def test_lag_bound_evaluation(benchmark):
    from repro.bnb.bounds import JohnsonLagBound
    inst = scaled_instance(1, n_jobs=12, n_machines=10)
    bound = JohnsonLagBound("adjacent").attach(inst)
    remaining = list(range(1, 12))
    front = inst.advance([0] * 10, 0)
    rem_sum = [sum(inst.p[i][j] for j in remaining[1:]) for i in range(10)]
    bound.set_mask([j in remaining[1:] for j in range(12)])

    def run():
        fd = bound.frame(remaining)
        return bound.child(front, 1, fd, rem_sum)

    assert benchmark(run) > 0


def test_decompose_block(benchmark):
    from repro.bnb.engine import BnBEngine
    from repro.bnb.interval import tree_leaves
    inst = scaled_instance(1, n_jobs=10, n_machines=10)
    engine = BnBEngine(inst)

    def run():
        return engine.decompose_block(0, BoundState(), tree_leaves(10))[1]

    assert benchmark(run) == 10


def test_fault_hooks_free_when_clean(benchmark):
    """The fault layer must cost nothing when no FaultPlan is active.

    A null plan is normalised away at Simulator construction, so every
    per-message fault hook is a dead branch. Guard both directions: the
    results are bit-identical, and the wall-clock ratio stays within
    noise (a lenient 2.5x bound — CI machines are jittery, and a real
    regression here would be a hot-path branch showing up as 1.1-1.3x on
    every message).
    """
    import time

    from repro.experiments.runner import RunConfig, run_once
    from repro.experiments.specs import UTSSpec
    from repro.sim.faults import FaultPlan

    spec = UTSSpec("bin_tiny")

    def once(plan):
        cfg = RunConfig(protocol="BTD", n=12, quantum=64, seed=42,
                        faults=plan)
        return run_once(cfg, spec.build())

    clean = once(None)
    null = once(FaultPlan())
    assert clean.makespan == null.makespan
    assert clean.total_msgs == null.total_msgs
    assert clean.total_units == null.total_units
    assert null.msgs_lost == null.retransmits == null.repairs == 0

    def wall(plan, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            once(plan)
            best = min(best, time.perf_counter() - t0)
        return best

    assert benchmark(lambda: once(None).makespan) > 0
    t_clean = wall(None)
    t_null = wall(FaultPlan())
    assert t_null < 2.5 * t_clean, (
        f"null FaultPlan slowed the clean path {t_null / t_clean:.2f}x")
