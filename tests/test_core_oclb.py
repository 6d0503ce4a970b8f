"""Protocol-level tests of the overlay-centric load balancer."""

import pytest

from repro.apps.synthetic import SyntheticApplication
from repro.core.config import OCLBConfig
from repro.core.oclb import BRIDGE, OverlayWorker
from repro.core.worker import WorkerConfig
from repro.experiments.runner import RunConfig, build_workers
from repro.experiments.specs import BnBSpec
from repro.overlay.bridges import add_bridges
from repro.overlay.tree import chain_tree, deterministic_tree
from repro.sim import Message, Simulator, grid5000, uniform_network
from repro.sim.errors import SimConfigError


def run_oclb(overlay, app=None, quantum=16, seed=3, oclb=None, net=None,
             max_time=None):
    app = app or SyntheticApplication(2000, unit_cost=1e-5)
    sim = Simulator(net or uniform_network(latency=1e-4), seed=seed)
    workers = [sim.add_process(OverlayWorker(
        p, app, WorkerConfig(quantum=quantum, seed=seed), overlay, oclb))
        for p in range(overlay.n)]
    stats = sim.run(max_time=max_time)
    return workers, stats


def test_all_work_processed_and_all_terminate():
    tree = deterministic_tree(13, 3)
    workers, stats = run_oclb(tree)
    assert stats.total_work_units == 2000
    assert all(w.terminated for w in workers)


def test_initial_work_at_root_only():
    tree = deterministic_tree(5, 2)
    app = SyntheticApplication(100)
    sim = Simulator(uniform_network(), seed=1)
    ws = [sim.add_process(OverlayWorker(p, app, WorkerConfig(), tree))
          for p in range(5)]
    assert ws[0].work.amount() == 100
    assert all(w.work.amount() == 0 for w in ws[1:])


def test_subtree_sizes_learned_by_convergecast():
    tree = deterministic_tree(13, 3)
    workers, _ = run_oclb(tree)
    for w in workers:
        assert w.sizes.my_size == tree.subtree_size[w.pid]
        for c in tree.children[w.pid]:
            assert w.child_sizes[c] == tree.subtree_size[c]


def test_every_worker_contributes_on_a_chain():
    """Even the worst overlay (a path) distributes work to everyone."""
    tree = chain_tree(6)
    workers, stats = run_oclb(tree, app=SyntheticApplication(6000))
    contributions = [p.work_units for p in stats.per_process]
    assert sum(contributions) == 6000
    assert all(c > 0 for c in contributions)


def test_bridged_overlay_works():
    overlay = add_bridges(deterministic_tree(20, 4), seed=2)
    workers, stats = run_oclb(overlay)
    assert stats.total_work_units == 2000
    assert all(w.terminated for w in workers)
    assert all(w.bridged for w in workers)


def test_sharing_fraction_proportionality():
    """The root's grant to a child tracks the child's subtree share."""
    # TD(12, 3): child 1 has subtree size 4 (nodes 1,4,5,6... within 12)
    tree = deterministic_tree(13, 3)
    app = SyntheticApplication(13_000, unit_cost=1e-3)  # slow: one quantum

    recorded = {}
    orig = OverlayWorker._try_serve

    def spy(self, entry):
        before = self.work.amount()
        ok = orig(self, entry)
        if ok and self.pid == 0 and entry.pid not in recorded:
            recorded[entry.pid] = (before, before - self.work.amount())
        return ok

    OverlayWorker._try_serve = spy
    try:
        run_oclb(tree, app=app, quantum=4, max_time=0.5)
    finally:
        OverlayWorker._try_serve = orig
    # children of the root are 1, 2, 3 with subtree sizes 4, 4, 4 of 13
    for child in (1, 2, 3):
        if child in recorded:
            before, given = recorded[child]
            assert given == pytest.approx(before * 4 / 13, abs=2)


def test_up_request_marks_exhausted_child():
    tree = deterministic_tree(4, 3)
    workers, _ = run_oclb(tree)
    # by the end every child requested up at least once; the root served or
    # retained them, and everything terminated
    assert all(w.terminated for w in workers)


def test_single_node_overlay():
    tree = deterministic_tree(1, 2)
    workers, stats = run_oclb(tree)
    assert stats.total_work_units == 2000
    assert workers[0].terminated


def test_two_node_overlay():
    tree = deterministic_tree(2, 1)
    workers, stats = run_oclb(tree)
    assert stats.total_work_units == 2000
    assert stats.per_process[1].work_units > 0


def test_unknown_message_kind_ignored():
    tree = deterministic_tree(2, 1)
    app = SyntheticApplication(10)
    sim = Simulator(uniform_network(), seed=1)
    ws = [sim.add_process(OverlayWorker(p, app, WorkerConfig(), tree))
          for p in range(2)]
    ws[0].handle(Message(src=1, dst=0, kind="GARBAGE"))  # no crash


def test_config_validation():
    with pytest.raises(SimConfigError):
        OCLBConfig(wave_retry=0)
    with pytest.raises(SimConfigError):
        OCLBConfig(probe_retry=-1)


def test_withdraw_toggle():
    overlay = add_bridges(deterministic_tree(16, 4), seed=2)
    app = lambda: SyntheticApplication(4000, unit_cost=1e-5)
    _, with_w = run_oclb(overlay, app=app(),
                         oclb=OCLBConfig(withdraw=True))
    _, without_w = run_oclb(overlay, app=app(),
                            oclb=OCLBConfig(withdraw=False))
    assert with_w.total_work_units == without_w.total_work_units == 4000


def test_message_channels_clear_right_flags():
    """WORK on the bridge channel clears only the bridge flag."""
    tree = deterministic_tree(3, 2)
    overlay = add_bridges(tree, seed=1)
    app = SyntheticApplication(50)
    sim = Simulator(uniform_network(), seed=1)
    ws = [sim.add_process(OverlayWorker(p, app, WorkerConfig(), overlay))
          for p in range(3)]
    w = ws[1]
    w.up_outstanding = True
    w.bridge_outstanding = True
    w.oclb.withdraw = False
    piece = app.initial_work().split(0.1)
    w.work.merge(piece)  # simulate base-class merge
    msg = Message(src=overlay.bridge_of(1), dst=1, kind="WORK",
                  payload=(piece, BRIDGE))
    w.on_work_received(msg)
    assert w.bridge_outstanding is False
    assert w.up_outstanding is True


def test_stats_count_steal_attempts():
    tree = deterministic_tree(8, 2)
    _, stats = run_oclb(tree)
    assert stats.total_steals > 0


def test_bridge_to_a_tree_neighbour_gossips_once():
    """At n=2 the only bridge target is the tree neighbour: every new
    incumbent must still travel to it once, not once per edge."""
    cfg = RunConfig("BTD", n=2, quantum=16, seed=7)
    sim = Simulator(grid5000(), seed=cfg.seed)
    workers = build_workers(sim, cfg,
                            BnBSpec(1, n_jobs=9, n_machines=6).build())
    assert workers[0].bridge_target == 1
    assert workers[0].gossip_targets() == [1]
    assert workers[1].gossip_targets() == [0]
    bounds = []
    transmit = sim.transmit

    def spy(msg):
        if msg.kind == "BOUND":
            bounds.append((msg.src, msg.dst, msg.payload))
        transmit(msg)

    sim.transmit = spy
    sim.run()
    assert bounds, "the run improved no incumbent"
    assert len(bounds) == len(set(bounds))
