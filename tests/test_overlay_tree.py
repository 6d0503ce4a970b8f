"""Tests for tree overlays: construction, invariants, properties."""

import pytest
from hypothesis import given, strategies as st

from repro.overlay.tree import (TreeOverlay, chain_tree, deterministic_tree,
                                from_parents, random_tree, star_tree)
from repro.sim.errors import SimConfigError


def test_td_parentage():
    t = deterministic_tree(12, dmax=3)
    assert t.parent[0] == -1
    assert t.children[0] == (1, 2, 3)
    assert t.children[1] == (4, 5, 6)
    assert t.parent[11] == 3  # wait recomputed below
    # node v's parent is (v-1)//dmax
    for v in range(1, 12):
        assert t.parent[v] == (v - 1) // 3


def test_td_degree_bound():
    for n in (1, 2, 17, 100):
        for dmax in (1, 2, 5, 10):
            t = deterministic_tree(n, dmax)
            assert all(len(t.children[v]) <= dmax for v in range(n))
            t.validate()


def test_td_is_bfs_labelled():
    t = deterministic_tree(50, dmax=4)
    assert list(t.bfs_order()) == list(range(50))


def test_subtree_sizes_sum():
    t = deterministic_tree(31, dmax=2)
    assert t.subtree_size[0] == 31
    # perfect binary tree of 31 nodes: sizes 31,15,15,7,7,7,7,...
    assert t.subtree_size[1] == t.subtree_size[2] == 15
    assert t.subtree_size[3] == 7


def test_depth_and_height():
    t = chain_tree(5)
    assert t.height == 4
    assert t.depth == (0, 1, 2, 3, 4)
    s = star_tree(5)
    assert s.height == 1


def test_random_tree_valid_and_seeded():
    a = random_tree(200, seed=4)
    b = random_tree(200, seed=4)
    c = random_tree(200, seed=5)
    a.validate()
    assert a.parent == b.parent
    assert a.parent != c.parent


def test_leaves_and_is_leaf():
    t = deterministic_tree(7, dmax=2)
    assert t.leaves() == [3, 4, 5, 6]


def test_neighbors():
    t = deterministic_tree(7, dmax=2)
    assert set(t.neighbors(0)) == {1, 2}
    assert set(t.neighbors(1)) == {3, 4, 0}


def test_degree_counts_parent_link():
    t = deterministic_tree(7, dmax=2)
    assert t.degree(0) == 2
    assert t.degree(1) == 3
    assert t.degree(6) == 1


def test_distance():
    t = deterministic_tree(15, dmax=2)
    assert t.distance(0, 0) == 0
    assert t.distance(3, 1) == 1
    assert t.distance(3, 4) == 2
    assert t.distance(7, 14) == 6  # leaf to leaf through the root


def test_invalid_constructions():
    with pytest.raises(SimConfigError):
        deterministic_tree(0, 2)
    with pytest.raises(SimConfigError):
        deterministic_tree(5, 0)
    with pytest.raises(SimConfigError):
        random_tree(0)
    with pytest.raises(SimConfigError):
        from_parents([0])  # root must be -1
    with pytest.raises(SimConfigError):
        from_parents([-1, 5])  # forward parent
    with pytest.raises(SimConfigError):
        TreeOverlay(parent=())


def test_single_node():
    t = deterministic_tree(1, 5)
    assert t.n == 1 and t.leaves() == [0] and t.height == 0
    assert t.neighbors(0) == []


@st.composite
def parent_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    parents = [-1] + [draw(st.integers(min_value=0, max_value=v - 1))
                      for v in range(1, n)]
    return parents


@given(parent_vectors())
def test_property_overlay_invariants(parents):
    t = from_parents(parents)
    t.validate()
    # subtree sizes: each node's size = 1 + sum of children sizes
    for v in range(t.n):
        assert t.subtree_size[v] == 1 + sum(t.subtree_size[c]
                                            for c in t.children[v])
    # BFS order visits every node once
    assert sorted(t.bfs_order()) == list(range(t.n))
    # depths consistent with parents
    for v in range(1, t.n):
        assert t.depth[v] == t.depth[t.parent[v]] + 1


@given(parent_vectors(), st.data())
def test_property_distance_symmetric_triangle(parents, data):
    t = from_parents(parents)
    u = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    assert t.distance(u, v) == t.distance(v, u)
    assert t.distance(u, v) <= t.depth[u] + t.depth[v]
    if u == v:
        assert t.distance(u, v) == 0
