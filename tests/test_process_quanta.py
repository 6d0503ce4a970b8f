"""The replay contract: ``process_quanta(w, q, shared, L)`` is L quanta.

Quantum fusion replays a busy worker's quanta through one
``Application.process_quanta`` call. Every application must make that call
equal to L sequential ``process`` calls on a twin of the work (stopping
early once the work drains): the same per-quantum unit counts, and the
same work left over. Each case builds the work and its twin by the same
sequence of operations, so a buffer or a cursor can be compared too.

* UTS: the stack's own replay loop (``UTSWork.process_quanta``) across all
  three kernel size paths, the unexpanded root, a root merged into before
  its first quantum, stacks that drain mid-replay, buffer growth
  mid-replay, and the drained stack's return to the minimum buffer;
* synthetic: the closed form;
* B&B: the default loop, with a bound state per twin (B&B carries shared
  knowledge, so the engine never fuses it, but the loop must still hold).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.bnb_app import BnBApplication
from repro.apps.synthetic import SyntheticApplication, SyntheticWork
from repro.apps.uts_app import UTSApplication
from repro.bnb.taillard import scaled_instance
from repro.uts.params import PRESETS
from repro.uts.tree import UTSParams, root_frontier
from repro.uts.work import _MIN_CAP, UTSWork

QUANTA = (1, 14, 15, 16, 64, 256, 257, 2048)


def sequential(app, work, q, shared, limit):
    """What ``process_quanta`` must equal: ``limit`` process() calls."""
    out = []
    while len(out) < limit and not work.is_empty():
        units = app.process(work, q, shared).units
        if units <= 0:
            break
        out.append(units)
    return out


# -- UTS ------------------------------------------------------------------------

def uts_state(work):
    return (work.peek(), work.amount(), len(work._states), work._root)


def assert_same_uts(a, b):
    (sa, da), na, ca, ra = uts_state(a)
    (sb, db), nb, cb, rb = uts_state(b)
    assert np.array_equal(sa, sb) and np.array_equal(da, db)
    assert (na, ca, ra) == (nb, cb, rb)


@st.composite
def uts_cases(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    params = UTSParams(
        b0=draw(st.integers(min_value=1, max_value=300)),
        q=draw(st.floats(min_value=0.0, max_value=0.99 / m)),
        m=m, root_seed=draw(st.integers(min_value=0, max_value=2 ** 31)))
    start = draw(st.sampled_from(["root", "merged", "midway"]))
    return (params, start, draw(st.integers(min_value=0, max_value=40)),
            draw(st.sampled_from(QUANTA)),
            draw(st.integers(min_value=1, max_value=64)))


def build_uts(params, start, steps):
    """One UTS stack, built deterministically (call twice for a twin)."""
    work = UTSWork.root(params)
    if start == "merged":
        # a merged piece slides under the root before its first quantum
        ps, pd = root_frontier(UTSParams(b0=1 + steps, q=0.3, m=2,
                                         root_seed=params.root_seed + 1))
        work.merge(UTSWork(params, states=ps, depths=pd + np.int32(3)))
    elif start == "midway":
        for _ in range(steps):
            work.process(7)
    return work


@settings(max_examples=300, deadline=None)
@given(uts_cases())
def test_uts_replay_equals_sequential_quanta(case):
    params, start, steps, q, limit = case
    app = UTSApplication(params)
    fused, twin = build_uts(params, start, steps), build_uts(params, start,
                                                             steps)
    assert_same_uts(fused, twin)
    got = app.process_quanta(fused, q, None, limit)
    assert got == sequential(app, twin, q, None, limit)
    assert_same_uts(fused, twin)


def test_uts_replay_grows_and_releases_the_buffer_mid_call():
    """Growth while the stack lives in locals, then a drain: the replay
    leaves exactly the buffer a process() loop leaves."""
    params = PRESETS["bin_tiny"].params
    app = UTSApplication(params)
    fused, twin = UTSWork.root(params), UTSWork.root(params)
    got = app.process_quanta(fused, 16, None, 10 ** 6)
    assert got == sequential(app, twin, 16, None, 10 ** 6)
    assert sum(got) == PRESETS["bin_tiny"].nodes
    assert fused.is_empty() and len(fused._states) == _MIN_CAP
    assert_same_uts(fused, twin)


def test_uts_replay_stops_at_limit_and_at_drain():
    params = UTSParams(b0=5, q=0.0, m=2)             # root + five leaves
    work = UTSWork.root(params)
    assert work.process_quanta(2, 2) == [1, 2]
    assert work.process_quanta(2, 10) == [2, 1]
    assert work.is_empty() and work.process_quanta(2, 10) == []
    assert UTSWork.root(params).process_quanta(4, 0) == []
    assert UTSWork.root(params).process_quanta(0, 4) == []


def test_root_flag_follows_the_root_through_split_and_merge():
    """The pseudo-root is found without a per-quantum scan; the flag that
    replaces the scan must travel with the depth-0 entry."""
    params = PRESETS["bin_tiny"].params
    ps, pd = root_frontier(UTSParams(b0=6, q=0.3, m=2, root_seed=3))
    pd = pd + np.int32(1)
    # how a run holds the root: on top of what was merged under it, so a
    # split (from the bottom, keeping one entry) always leaves it behind
    host = UTSWork.root(params)
    host.merge(UTSWork(params, states=ps, depths=pd))
    piece = host.split(0.99)
    assert host._root and not piece._root and host.amount() == 1
    # a stack built with the root at the bottom: the split carries it off
    rs, rd = UTSWork.root(params).peek()
    low = UTSWork(params, states=np.concatenate([rs, ps]),
                  depths=np.concatenate([rd, pd]))
    assert low._root
    piece = low.split(0.5)
    assert piece._root and not low._root
    thief = UTSWork.empty(params)
    thief.merge(piece)
    assert thief._root and not piece._root
    twin = UTSWork(params, *thief.peek())
    app = UTSApplication(params)
    assert app.process_quanta(thief, 16, None, 10 ** 6) == sequential(
        app, twin, 16, None, 10 ** 6)
    assert not thief._root and not twin._root


# -- synthetic -------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=50))
def test_synthetic_replay_equals_sequential_quanta(units, q, limit):
    app = SyntheticApplication(max(1, units))
    fused, twin = SyntheticWork(units), SyntheticWork(units)
    assert app.process_quanta(fused, q, None, limit) == sequential(
        app, twin, q, None, limit)
    assert fused.units == twin.units


# -- B&B -------------------------------------------------------------------------

BNB = BnBApplication(scaled_instance(1, 7, 5))


def build_bnb(steps):
    work, shared = BNB.initial_work(), BNB.make_shared()
    for _ in range(steps):
        BNB.process(work, 9, shared)
    return work, shared


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30),
       st.sampled_from([1, 16, 64, 257]),
       st.integers(min_value=1, max_value=40))
def test_bnb_replay_equals_sequential_quanta(steps, q, limit):
    (fused, fs), (twin, ts) = build_bnb(steps), build_bnb(steps)
    got = BNB.process_quanta(fused, q, fs, limit)
    assert got == sequential(BNB, twin, q, ts, limit)
    assert fused.as_tuples() == twin.as_tuples()
    assert fs.value == ts.value
    # the same work left: it drains in the same quanta
    assert (sequential(BNB, fused, q, fs, 10 ** 6)
            == sequential(BNB, twin, q, ts, 10 ** 6))
