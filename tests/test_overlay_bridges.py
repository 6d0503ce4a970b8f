"""Tests for bridge-edge selection (BTD)."""

import pytest

from repro.overlay.bridges import BridgedTreeOverlay, add_bridges
from repro.overlay.tree import deterministic_tree, star_tree
from repro.sim.errors import SimConfigError


def test_every_node_gets_a_bridge():
    t = deterministic_tree(100, dmax=10)
    b = add_bridges(t, seed=1)
    assert len(b.bridge) == 100
    assert all(b.bridge_of(v) is not None for v in range(100))


def test_no_self_bridges():
    t = deterministic_tree(64, dmax=2)
    b = add_bridges(t, seed=3)
    assert all(b.bridge[v] != v for v in range(64))


def test_far_policy_distance():
    t = deterministic_tree(127, dmax=2)  # height 6
    b = add_bridges(t, seed=2, policy="far")
    threshold = max(2, t.height // 2 + 1)
    far_enough = sum(1 for v in range(t.n)
                     if t.distance(v, b.bridge[v]) > threshold)
    # the root region may fall back to uniform; the vast majority must be far
    assert far_enough >= t.n * 0.8


def test_uniform_policy_avoids_tree_neighbors():
    t = deterministic_tree(50, dmax=5)
    b = add_bridges(t, seed=9, policy="uniform")
    for v in range(50):
        u = b.bridge[v]
        assert u != t.parent[v]
        assert t.parent[u] != v


def test_seeded_determinism():
    t = deterministic_tree(80, dmax=4)
    assert add_bridges(t, seed=5).bridge == add_bridges(t, seed=5).bridge
    assert add_bridges(t, seed=5).bridge != add_bridges(t, seed=6).bridge


def test_unknown_policy():
    with pytest.raises(SimConfigError):
        add_bridges(deterministic_tree(10, 2), policy="nope")


def test_tiny_overlays():
    t2 = deterministic_tree(2, 2)
    b = add_bridges(t2, seed=0)
    # only possible non-self target is the tree neighbour; fallback allows it
    assert b.bridge == (1, 0)
    t1 = deterministic_tree(1, 2)
    b1 = add_bridges(t1, seed=0)
    assert b1.bridge_of(0) is None


def test_star_fallback():
    # On a star, "far" admits no pair; fallback must still give bridges.
    s = star_tree(20)
    b = add_bridges(s, seed=1)
    assert all(b.bridge[v] != v for v in range(20))


def test_kind_and_validation():
    t = deterministic_tree(10, 2)
    b = add_bridges(t, seed=0)
    assert b.kind == "BTD"
    assert b.n == 10
    with pytest.raises(SimConfigError):
        BridgedTreeOverlay(tree=t, bridge=(0,) * 9)
    with pytest.raises(SimConfigError):
        BridgedTreeOverlay(tree=t, bridge=tuple([0] + [0] * 9))  # 0 -> 0


def _drawn_bridges(tree, seed, policy, max_tries=64):
    """The draw loop of ``add_bridges`` without its n == 2 shortcut."""
    from repro.overlay.bridges import _POLICIES
    from repro.sim.rng import RngStream
    rng = RngStream(seed, "bridges", policy)
    n = tree.n
    chain = [policy] + [p for p in ("uniform",) if p != policy]
    bridges = []
    for v in range(n):
        choice = -1
        for name in chain:
            ok = _POLICIES[name](tree)
            for _ in range(max_tries):
                u = rng.randrange(n)
                if ok(v, u):
                    choice = u
                    break
            if choice >= 0:
                break
        if choice < 0 and n > 1:
            u = rng.randrange(n - 1)
            choice = u if u < v else u + 1
        bridges.append(choice)
    return tuple(bridges)


@pytest.mark.parametrize("policy", ["far", "uniform"])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_node_bridges_skip_the_draws_exactly(policy, seed):
    """n == 2 returns the forced answer without drawing: the same bridges
    the draw loop reaches after its misses and its last resort."""
    from repro.overlay.tree import random_tree
    for tree in (deterministic_tree(2, 2), random_tree(2, seed=seed)):
        got = add_bridges(tree, seed=seed, policy=policy)
        assert got.bridge == _drawn_bridges(tree, seed, policy) == (1, 0)
        assert got.policy == policy


def test_bridges_pinned_for_small_overlays():
    """Bridges for n in 3..64 under both policies, on a deterministic and
    a random tree each, hash to the value the draw loop has always given:
    the n == 2 shortcut leaves every other size alone."""
    import hashlib
    from repro.overlay.tree import random_tree
    h = hashlib.sha256()
    for policy in ("far", "uniform"):
        for n in range(3, 65):
            for tree in (deterministic_tree(n, 4), random_tree(n, seed=n)):
                bridge = add_bridges(tree, seed=7, policy=policy).bridge
                assert bridge == _drawn_bridges(tree, 7, policy)
                h.update(repr(bridge).encode())
    assert h.hexdigest() == (
        "a1665c9093434a5319112ee26e41f0bb38a40f543f7f36aa05fe5d795ce105ce")
