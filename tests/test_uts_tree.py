"""Tests for UTS tree rules and the sequential counter."""

import numpy as np
import pytest

from repro.sim.errors import SimConfigError
from repro.uts.params import PAPER_INSTANCES, PRESETS, get_preset
from repro.uts.rng import decide_unit
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams, child_counts, expand, root_frontier


def brute_force_count(params: UTSParams) -> int:
    """Scalar-recursion oracle (small trees only)."""
    from repro.uts.rng import nth_child, root_state
    root = root_state(params.root_seed)
    total = 1
    stack = [(nth_child(root, i), 1) for i in range(params.b0)]
    while stack:
        s, d = stack.pop()
        total += 1
        u = float(decide_unit(np.array([s], dtype=np.uint64))[0])
        if params.variant == "bin":
            c = params.m if u < params.q else 0
        else:
            exp = params.b0 * params.alpha ** d
            c = int(exp) + (1 if u < exp - int(exp) else 0)
            if d >= params.depth_max:
                c = 0
        for i in range(c):
            stack.append((nth_child(s, i), d + 1))
    return total


def test_params_validation():
    with pytest.raises(SimConfigError):
        UTSParams(variant="wat")
    with pytest.raises(SimConfigError):
        UTSParams(b0=0)
    with pytest.raises(SimConfigError):
        UTSParams(q=1.2)
    with pytest.raises(SimConfigError):
        UTSParams(q=0.5, m=2)  # m*q >= 1 would be infinite
    with pytest.raises(SimConfigError):
        UTSParams(variant="geo", alpha=1.5)
    with pytest.raises(SimConfigError):
        UTSParams(variant="geo", depth_max=0)


def test_describe():
    assert "BIN" in UTSParams().describe()
    assert "GEO" in UTSParams(variant="geo").describe()


def test_root_frontier():
    p = UTSParams(b0=10, q=0.3, m=2, root_seed=5)
    states, depths = root_frontier(p)
    assert len(states) == 10
    assert (depths == 1).all()


def test_expand_empty():
    p = UTSParams()
    cs, cd = expand(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32),
                    p)
    assert len(cs) == 0 and len(cd) == 0


def test_expand_bin_counts_are_0_or_m():
    p = UTSParams(b0=10, q=0.3, m=3, root_seed=1)
    s, d = root_frontier(p)
    counts = child_counts(s, d, p)
    assert set(np.unique(counts)) <= {0, 3}


def test_geo_depth_cutoff():
    p = UTSParams(variant="geo", b0=3, alpha=0.9, depth_max=2, root_seed=1)
    s = np.arange(10, dtype=np.uint64)
    d = np.full(10, 2, dtype=np.int32)
    assert (child_counts(s, d, p) == 0).all()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_count_matches_bruteforce_bin(seed):
    p = UTSParams(b0=8, q=0.40, m=2, root_seed=seed)
    assert count_tree(p).nodes == brute_force_count(p)


@pytest.mark.parametrize("seed", [0, 1])
def test_count_matches_bruteforce_geo(seed):
    p = UTSParams(variant="geo", b0=3, alpha=0.6, depth_max=6, root_seed=seed)
    assert count_tree(p).nodes == brute_force_count(p)


def test_count_leaves_plus_internal():
    p = UTSParams(b0=50, q=0.45, m=2, root_seed=2)
    st = count_tree(p)
    # binomial with m=2: internal non-root nodes have exactly 2 children
    internal_nonroot = st.nodes - 1 - st.leaves
    assert 1 + 50 + 2 * internal_nonroot == st.nodes  # root + b0 + children


def test_count_max_nodes_guard():
    p = UTSParams(b0=2000, q=0.4995, m=2, root_seed=1)
    with pytest.raises(SimConfigError):
        count_tree(p, max_nodes=1000)


def test_preset_sizes_documented_correctly():
    for name in ("bin_tiny", "bin_small", "bin_large", "bin_deep"):
        preset = PRESETS[name]
        assert count_tree(preset.params).nodes == preset.nodes


def test_paper_instances_blocked():
    with pytest.raises(SimConfigError):
        get_preset("bin157B")
    assert PAPER_INSTANCES["bin157B"].runnable is False


def test_get_preset():
    assert get_preset("bin_tiny").nodes == 21_483
    with pytest.raises(SimConfigError):
        get_preset("nope")
