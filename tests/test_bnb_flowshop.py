"""Tests for the flow-shop model: makespans, heads/tails."""

import pytest
from hypothesis import given, strategies as st

from repro.bnb.flowshop import make_instance
from repro.sim.errors import SimConfigError

# Classic hand-checkable 2-machine example
TWO_M = make_instance([[3, 5, 1], [2, 4, 6]], name="2m")


def test_validation():
    with pytest.raises(SimConfigError):
        make_instance([])
    with pytest.raises(SimConfigError):
        make_instance([[1, 2], [3]])
    with pytest.raises(SimConfigError):
        make_instance([[1, 0]])


def test_makespan_by_hand():
    # jobs in order 0,1,2 on 2 machines:
    # M0: 3, 8, 9 ; M1: 5, 12, 18
    assert TWO_M.makespan([0, 1, 2]) == 18
    # order 2,0,1: M0: 1,4,9 ; M1: 7,9,13
    assert TWO_M.makespan([2, 0, 1]) == 13


def test_makespan_validates_permutation():
    with pytest.raises(SimConfigError):
        TWO_M.makespan([0, 0, 1])


def test_advance_matches_makespan():
    front = [0, 0]
    for j in (2, 0, 1):
        front = TWO_M.advance(front, j)
    assert front[-1] == 13


def test_heads_tails():
    inst = make_instance([[2, 3], [5, 7], [11, 13]])
    assert inst.tails[0] == (5 + 11, 7 + 13)
    assert inst.tails[2] == (0, 0)
    assert inst.heads[0] == (0, 0)
    assert inst.heads[2] == (2 + 5, 3 + 7)


def test_total_work_and_describe():
    assert TWO_M.total_work == 3 + 5 + 1 + 2 + 4 + 6
    assert "2m" in TWO_M.describe()


@given(st.lists(st.lists(st.integers(min_value=1, max_value=50),
                         min_size=4, max_size=4),
                min_size=2, max_size=4))
def test_property_makespan_bounds(rows):
    inst = make_instance(rows)
    perm = list(range(inst.n_jobs))
    c = inst.makespan(perm)
    # makespan >= max machine load, <= total work
    assert c >= max(sum(r) for r in rows)
    assert c <= inst.total_work

