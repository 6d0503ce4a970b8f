"""Golden tests for the max-plus bound table.

The engine's enumeration (one ``LowerBound.table`` product per frame) must
be *bit-identical* to the scalar ``frame``/``child`` reference — the
:class:`tests.bnb_scalar.ScalarBnBEngine` twin: same bounds, same
explored-node counts, same optima. These tests pin that contract on every
scaled Taillard instance and every shipped bound family.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.bnb.bounds import JohnsonPairBound, get_bound
from repro.bnb.engine import BnBEngine
from repro.bnb.interval import tree_leaves
from repro.bnb.kernels import child_bounds
from repro.bnb.state import BoundState
from repro.bnb.taillard import scaled_instance
from repro.bnb.work import BnBWork
from tests.bnb_scalar import ScalarBnBEngine

BOUNDS = ["lb1", "johnson:adjacent", "llrk", "llrk-full"]
FAMILIES = ["trivial", "lb1", "johnson:adjacent", "johnson:last",
            "johnson-lag:all", "llrk", "llrk-full"]


def scalar_children(ref, inst, front, remaining):
    """The scalar ``child`` loop over every child of one node."""
    n, m = inst.n_jobs, inst.n_machines
    mask = [j in remaining for j in range(n)]
    ref.set_mask(mask)
    fd = ref.frame(remaining)
    rem_sum = [sum(inst.p[i][j] for j in remaining) for i in range(m)]
    out = []
    for child in remaining:
        cf = inst.advance(front, child)
        crs = [rem_sum[i] - inst.p[i][child] for i in range(m)]
        mask[child] = False
        out.append(ref.child(cf, child, fd, crs))
        mask[child] = True
    return out


def subset_key(remaining):
    key = 0
    for j in remaining:
        key |= 1 << j
    return key


# -- full-solve golden equivalence: all ten scaled Taillard instances ---------

@pytest.mark.parametrize("idx", range(1, 11))
@pytest.mark.parametrize("bound", BOUNDS)
def test_batch_solve_bit_identical(idx, bound):
    """Ta2{idx}s: batched solve == scalar solve (value, perm, node count)."""
    inst = scaled_instance(idx, n_jobs=8, n_machines=10)
    batched = BnBEngine(inst, bound=bound).solve()
    scalar = ScalarBnBEngine(inst, bound=bound).solve()
    assert batched == scalar


def test_batch_explore_bit_identical_10x10():
    """Budgeted exploration on a 10x10 matches the scalar path step by step."""
    inst = scaled_instance(1, n_jobs=10, n_machines=10)
    for bound in BOUNDS:
        eb = BnBEngine(inst, bound=bound)
        es = ScalarBnBEngine(inst, bound=bound)
        wb, ws = BnBWork.full_tree(10), BnBWork.full_tree(10)
        sb, ss = BoundState(), BoundState()
        for _ in range(4):
            rb = eb.explore(wb, sb, 5_000)
            rs = es.explore(ws, ss, 5_000)
            assert (rb.nodes, rb.improved, rb.exhausted) == \
                   (rs.nodes, rs.improved, rs.exhausted)
            assert sb.value == ss.value
            assert wb.intervals == ws.intervals


# -- table(): direct comparison against the scalar child() loop --------------

@pytest.mark.parametrize("bound_name", BOUNDS + ["trivial", "johnson-lag:all"])
def test_children_matches_scalar_child_loop(bound_name):
    inst = scaled_instance(3, n_jobs=9, n_machines=10)
    bound = get_bound(bound_name).attach(inst)
    ref = get_bound(bound_name).attach(inst)
    front = [0] * inst.n_machines
    scheduled = [4, 0]
    for j in scheduled:
        front = inst.advance(front, j)
    remaining = [j for j in range(inst.n_jobs) if j not in scheduled]

    table = bound.table(subset_key(remaining), remaining)
    assert table.shape == (len(remaining), inst.n_machines)
    assert child_bounds(table, front) == \
        scalar_children(ref, inst, front, remaining)


@pytest.mark.parametrize("bound_name", BOUNDS)
def test_children_cached_consistent_across_revisits(bound_name):
    """A subset's cached table bounds every front that reaches the subset —
    revisited through any prefix order — exactly as a fresh table does."""
    inst = scaled_instance(5, n_jobs=8, n_machines=10)
    bound = get_bound(bound_name).attach(inst)
    n, m = inst.n_jobs, inst.n_machines
    for scheduled in ([0], [1], [0, 3], [3, 0], [5, 2, 7], [7, 5, 2]):
        front = [0] * m
        for j in scheduled:
            front = inst.advance(front, j)
        remaining = [j for j in range(n) if j not in scheduled]
        key = subset_key(remaining)
        fresh = get_bound(bound_name).attach(inst).table(key, remaining)
        first = bound.table(key, remaining)
        assert bound.table(key, remaining) is first   # second pass: cached
        assert first.tolist() == fresh.tolist()
        assert child_bounds(first, front) == child_bounds(fresh, front)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(FAMILIES),
       idx=st.integers(1, 10), n=st.integers(2, 12), m=st.integers(2, 20))
def test_property_table_matches_scalar_child_loop(data, family, idx, n, m):
    """Any subset, any front that reaches it (its complement advanced in a
    random order), every family: table bounds == the scalar loop."""
    inst = scaled_instance(idx, n_jobs=n, n_machines=m)
    remaining = sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
        label="remaining"))
    done = data.draw(st.permutations(
        [j for j in range(n) if j not in remaining]), label="prefix")
    front = [0] * m
    for j in done:
        front = inst.advance(front, j)
    bound = get_bound(family).attach(inst)
    ref = get_bound(family).attach(inst)
    table = bound.table(subset_key(remaining), remaining)
    assert child_bounds(table, front) == \
        scalar_children(ref, inst, front, remaining)


# -- decompose_block: batch path == scalar path --------------------------------

def test_decompose_block_bit_identical():
    inst = scaled_instance(2, n_jobs=10, n_machines=10)
    width = tree_leaves(10)
    for bound in BOUNDS:
        eb = BnBEngine(inst, bound=bound)
        es = ScalarBnBEngine(inst, bound=bound)
        blocks_b = eb.decompose_block(0, BoundState(), width)
        blocks_s = es.decompose_block(0, BoundState(), width)
        assert blocks_b == blocks_s


# -- regression: per-engine bound state must not be shared --------------------

def test_two_engines_do_not_share_bound_state():
    """JohnsonPairBound masks/tables are per-instance, not class-level."""
    inst_a = scaled_instance(1, n_jobs=8, n_machines=10)
    inst_b = scaled_instance(7, n_jobs=8, n_machines=10)

    ref_a = BnBEngine(inst_a, bound="llrk").solve()
    ref_b = BnBEngine(inst_b, bound="llrk").solve()

    # interleave two live engines on different instances
    ea = BnBEngine(inst_a, bound="llrk")
    eb = BnBEngine(inst_b, bound="llrk")
    wa, wb = BnBWork.full_tree(8), BnBWork.full_tree(8)
    sa, sb = BoundState(), BoundState()
    while True:
        ra = ea.explore(wa, sa, 500)
        rb = eb.explore(wb, sb, 500)
        if ra.exhausted and rb.exhausted:
            break
    assert sa.value == ref_a[0]
    assert sb.value == ref_b[0]

    # the scalar mask path, interleaved, must also stay independent
    ba = JohnsonPairBound("adjacent").attach(inst_a)
    bb = JohnsonPairBound("adjacent").attach(inst_b)
    ba.set_mask([True] * 8)
    bb.set_mask([False] * 8)
    assert ba._mask != bb._mask
