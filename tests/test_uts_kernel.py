"""The fused UTS kernel against the reference composition it replaces.

``tree.expand`` decides fertility with one integer compare and derives the
children in place (binomial SplitMix instances); the reference is
``child_counts`` -> ``rng.child_states`` -> ``repeat(depths) + 1``, which
the sequential oracle ``count_tree`` is built from. They must agree
element for element and dtype for dtype — and ``UTSWork.process`` must
push and pop exactly the entries a stack built from the reference would.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uts import rng as uts_rng
from repro.uts.params import PRESETS
from repro.uts.rng import ONEPASS_MAX, SMALL_BATCH
from repro.uts.sequential import count_tree
from repro.uts.tree import UTSParams, child_counts, expand, root_frontier
from repro.uts.work import _MIN_CAP, UTSWork

TINY = PRESETS["bin_tiny"].params
M64 = (1 << 64) - 1
Q_EDGES = (0.0, 2.0 ** -53, 0.25, float(np.nextafter(0.5, 0)), 0.4999995)


def reference_expand(states, depths, params):
    counts = child_counts(states, depths, params)
    children = uts_rng.child_states(states, counts)
    child_depths = (np.repeat(depths, counts) + np.int32(1)).astype(np.int32)
    return children, child_depths


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def unmix64(out: int) -> int:
    """Inverse of the SplitMix64 finalizer (it is a bijection)."""
    z = out ^ (out >> 31) ^ (out >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & M64
    z = z ^ (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & M64
    z = z ^ (z >> 30) ^ (z >> 60)
    return (z - 0x9E3779B97F4A7C15) & M64


def states_drawing(ks):
    """States whose decision draw is exactly ``k / 2**53`` for each k."""
    return [unmix64(k << 11) ^ int(uts_rng.DECIDE_SALT) for k in ks]


def test_unmix_builds_the_draw_it_promises():
    ks = [0, 1, 12345, (1 << 53) - 1]
    u = uts_rng.decide_unit(np.array(states_drawing(ks), dtype=np.uint64))
    assert u.tolist() == [k / 2.0 ** 53 for k in ks]


# -- (a) the integer threshold ------------------------------------------------

@st.composite
def bin_cases(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.one_of(
        st.floats(min_value=0.0, max_value=1.0 / m, exclude_max=True),
        st.sampled_from([e for e in Q_EDGES if m * e < 1.0])))
    n = draw(st.integers(min_value=1, max_value=3 * SMALL_BATCH))
    states = draw(st.lists(st.integers(min_value=0, max_value=M64),
                           min_size=n, max_size=n))
    # plant draws on both sides of, and exactly at, u == q
    t = math.ceil(q * 2.0 ** 53)
    edge = states_drawing(k for k in (t - 2, t - 1, t, t + 1)
                          if 0 <= k < 1 << 53)
    for i, s in zip(draw(st.permutations(range(n))), edge):
        states[i] = s
    depths = draw(st.lists(st.integers(min_value=1, max_value=2 ** 20),
                           min_size=n, max_size=n))
    return (UTSParams(b0=3, q=q, m=m), np.array(states, dtype=np.uint64),
            np.array(depths, dtype=np.int32))


@settings(max_examples=300, deadline=None)
@given(bin_cases())
def test_fused_expand_equals_reference(case):
    params, states, depths = case
    assert_same(expand(states, depths, params),
                reference_expand(states, depths, params))


@pytest.mark.parametrize("q", Q_EDGES)
@pytest.mark.parametrize("n", [4, 3 * SMALL_BATCH])
def test_threshold_is_exact_at_the_edge(q, n):
    """u < q flips between k = T-1 and k = T, on both paths."""
    t = math.ceil(q * 2.0 ** 53)
    ks = [k for k in (t - 1, t, t + 1) if 0 <= k < 1 << 53]
    states = np.array((states_drawing(ks) * n)[:n], dtype=np.uint64)
    depths = np.arange(1, n + 1, dtype=np.int32)
    params = UTSParams(b0=1, q=q, m=2)
    got = expand(states, depths, params)
    assert_same(got, reference_expand(states, depths, params))
    fertile = sum(1 for k in (ks * n)[:n] if k < t)
    assert len(got[0]) == 2 * fertile


PATH_EDGES = (SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 1,
              ONEPASS_MAX - 1, ONEPASS_MAX, ONEPASS_MAX + 1)


@pytest.mark.parametrize("plant", ["edge", "fertile", "leaves"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", PATH_EDGES)
def test_every_size_path_equals_reference_at_its_thresholds(n, m, plant):
    """Scalar (<= SMALL_BATCH), one-pass (<= ONEPASS_MAX) and two-pass
    batches, one either side of each crossover, with planted draws: on
    both sides of u == q, all fertile, all leaves."""
    q = 0.3 / m
    t = math.ceil(q * 2.0 ** 53)
    ks = {"edge": [t - 2, t - 1, t, t + 1], "fertile": [0, t - 1],
          "leaves": [t, (1 << 53) - 1]}[plant]
    states = np.array((states_drawing(ks) * n)[:n], dtype=np.uint64)
    if plant == "edge":          # mix planted draws with random ones
        states[::3] = np.random.default_rng(n).integers(
            0, M64, len(states[::3]), dtype=np.uint64, endpoint=True)
    depths = np.arange(1, n + 1, dtype=np.int32)
    params = UTSParams(b0=1, q=q, m=m)
    got = expand(states, depths, params)
    assert_same(got, reference_expand(states, depths, params))
    if plant == "fertile":
        assert len(got[0]) == m * n
    if plant == "leaves":
        assert got is expand(states[:0], depths[:0], params)   # the shared


# -- (b) same stack, entry for entry ------------------------------------------

class ReferenceStack:
    """``UTSWork.process`` re-told with the unfused helpers and plain
    concatenation: the traversal order, written down once more."""

    def __init__(self, params, states=None, depths=None):
        self.params = params
        if states is None:
            states = [uts_rng.root_state(params.root_seed)]
            depths = [0]
        self.s = np.array(states, dtype=np.uint64)
        self.d = np.array(depths, dtype=np.int32)

    def process(self, max_units):
        take = min(max_units, len(self.s))
        if take <= 0:
            return 0
        lo = len(self.s) - take
        s, d = self.s[lo:], self.d[lo:]
        pushed_s, pushed_d = [self.s[:lo]], [self.d[:lo]]
        if (d == 0).any():
            rs, rd = root_frontier(self.params)
            pushed_s.append(rs)
            pushed_d.append(rd)
            s, d = s[d != 0], d[d != 0]
        if len(s):
            cs, cd = reference_expand(s, d, self.params)
            pushed_s.append(cs)
            pushed_d.append(cd)
        self.s = np.concatenate(pushed_s)
        self.d = np.concatenate(pushed_d)
        return take


@pytest.mark.parametrize("q", [1, 16, SMALL_BATCH, SMALL_BATCH + 1, 64, 4096])
def test_stack_sequence_identical_to_reference(q):
    work, ref = UTSWork.root(TINY), ReferenceStack(TINY)
    total = 0
    while True:
        done = work.process(q)
        assert done == ref.process(q)
        assert_same(work.peek(), (ref.s, ref.d))
        if not done:
            break
        total += done
    assert total == PRESETS["bin_tiny"].nodes


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 14, 15, 16, 64, 256, 257, 2048]),
       st.integers(min_value=1, max_value=40),
       st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=12))
def test_replay_loop_identical_to_reference(q, limit, depths):
    """``process_quanta`` against the reference's per-batch scan for
    depth-0 entries, from stacks built by hand: pseudo-roots anywhere, and
    more than one of them."""
    params = UTSParams(b0=20, q=0.45, m=2, root_seed=3)   # ~200 nodes
    states = np.arange(1, len(depths) + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15)
    work = UTSWork(params, states=states, depths=np.array(depths, np.int32))
    ref = ReferenceStack(params, states, depths)
    while not work.is_empty():
        done = work.process_quanta(q, limit)
        assert 0 < len(done) <= limit
        assert done == [ref.process(q) for _ in done]
        assert_same(work.peek(), (ref.s, ref.d))
    assert len(ref.s) == 0


# -- (c) the pseudo-root sharing a batch --------------------------------------

def test_root_in_a_batch_with_merged_entries():
    ps, pd = root_frontier(UTSParams(b0=12, q=0.4, m=2, root_seed=9))
    pd = pd + np.int32(2)
    work = UTSWork.root(TINY)
    work.merge(UTSWork(TINY, states=ps, depths=pd))   # slides under the root
    assert work.process(8) == 8                       # root + 7 merged entries
    rs, rd = root_frontier(TINY)
    cs, cd = reference_expand(ps[5:], pd[5:], TINY)
    assert_same(work.peek(), (np.concatenate([ps[:5], rs, cs]),
                              np.concatenate([pd[:5], rd, cd])))


# -- (d) whose arrays are whose -----------------------------------------------

@pytest.mark.parametrize("n", [SMALL_BATCH, 4 * SMALL_BATCH])
def test_expand_reads_its_inputs_and_returns_the_callers_arrays(n):
    work = UTSWork.root(TINY)
    work.process(1)
    states, depths = work._states[:n], work._depths[:n]   # views of the stack
    before = states.copy(), depths.copy()
    cs, cd = expand(states, depths, TINY)
    assert_same((states, depths), before)
    assert len(cs) and cs.flags.writeable and cd.flags.writeable
    kept = cs.copy(), cd.copy()
    work._states[:] = 0
    work._depths[:] = 0
    assert_same((cs, cd), kept)
    cs[0] += np.uint64(1)                                  # the caller's
    cd[0] += np.int32(1)


@pytest.mark.parametrize("n", [0, 3, 4 * SMALL_BATCH])
def test_all_leaves_result_is_shared_and_read_only(n):
    barren = UTSParams(b0=1, q=0.0, m=2)
    states = np.arange(n, dtype=np.uint64)
    cs, cd = expand(states, np.ones(n, dtype=np.int32), barren)
    assert len(cs) == len(cd) == 0
    assert cs.dtype == np.uint64 and cd.dtype == np.int32
    assert not cs.flags.writeable and not cd.flags.writeable


# -- (e) an empty stack holds no buffer ---------------------------------------

def test_drained_stack_returns_to_minimum_capacity():
    work = UTSWork.root(TINY)
    work.process(1)
    assert len(work._states) >= TINY.b0 > _MIN_CAP
    while work.process(64):
        pass
    assert work.is_empty()
    assert len(work._states) == len(work._depths) == _MIN_CAP
    ps, pd = root_frontier(TINY)
    work.merge(UTSWork(TINY, states=ps, depths=pd))
    assert_same(work.peek(), (ps, pd))
    done = 0
    while not work.is_empty():
        done += work.process(64)
    assert done == PRESETS["bin_tiny"].nodes - 1


# -- (f) the instances that keep the reference composition --------------------

SHA1 = UTSParams(b0=40, q=0.42, m=2, root_seed=5, rng="sha1")


@pytest.mark.parametrize("params,q", [
    (PRESETS["geo_small"].params, 1024), (SHA1, SMALL_BATCH), (SHA1, 256),
], ids=["geo_small", "sha1-scalar", "sha1-vector"])
def test_unfused_instances_count_what_the_oracle_counts(params, q):
    work, done = UTSWork.root(params), 0
    while not work.is_empty():
        done += work.process(q)
    assert done == count_tree(params).nodes
