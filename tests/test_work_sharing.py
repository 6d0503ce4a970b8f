"""Tests for sharing policies: the paper's proportional rules + baselines."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.synthetic import SyntheticWork
from repro.sim.errors import SimConfigError
from repro.work.base import clamp_fraction
from repro.work.sharing import (PROPORTIONAL, STEAL_HALF, LinkKind,
                                ShareContext, fixed_fraction, get_policy,
                                steal_k)


def ctx(link, tu=1, tv=1, amount=100):
    return ShareContext(link=link, requester_subtree=tu, victim_subtree=tv,
                        work_amount=amount)


def test_proportional_child_steals_from_parent():
    # child subtree 33, parent subtree 100 -> T_u / T_v = 0.33
    c = ctx(LinkKind.TO_CHILD, tu=33, tv=100)
    assert PROPORTIONAL.fraction(c) == pytest.approx(0.33)


def test_proportional_parent_steals_from_child():
    # parent subtree 100, child subtree 33 -> (T_u - T_v)/T_u = 0.67
    c = ctx(LinkKind.TO_PARENT, tu=100, tv=33)
    assert PROPORTIONAL.fraction(c) == pytest.approx(0.67)


def test_proportional_bridge():
    # requester 25, owner 75 -> T_u/(T_u+T_v) = 0.25
    c = ctx(LinkKind.BRIDGE, tu=25, tv=75)
    assert PROPORTIONAL.fraction(c) == pytest.approx(0.25)


def test_proportional_peer_falls_back_to_half():
    assert PROPORTIONAL.fraction(ctx(LinkKind.PEER)) == 0.5


def test_steal_half_everywhere():
    for link in LinkKind:
        assert STEAL_HALF.fraction(ctx(link, tu=5, tv=500)) == 0.5


def given_units(policy, amount):
    """Units a victim holding ``amount`` hands over under ``policy``."""
    work = SyntheticWork(amount)
    piece = work.split(policy.fraction(ctx(LinkKind.PEER, amount=amount)))
    return 0 if piece is None else piece.units


def test_steal_k_units():
    p = steal_k(2)
    assert given_units(p, 100) == 2
    assert given_units(p, 3) == 2
    assert given_units(p, 2) == 1      # the victim keeps one unit
    assert given_units(p, 0) == 0
    with pytest.raises(SimConfigError):
        steal_k(0)


def test_fixed_fraction():
    p = fixed_fraction(0.25)
    assert given_units(p, 100) == 25
    with pytest.raises(SimConfigError):
        fixed_fraction(1.5)
    with pytest.raises(SimConfigError):
        fixed_fraction(0.0)


def test_registry_lookup():
    assert get_policy("proportional") is PROPORTIONAL
    assert get_policy("half") is STEAL_HALF
    assert get_policy("steal-half") is STEAL_HALF
    assert get_policy("steal-1").name == "steal-1"
    assert get_policy("steal-7").name == "steal-7"
    assert get_policy("fixed:0.3").fraction(ctx(LinkKind.PEER)) == 0.3
    with pytest.raises(SimConfigError):
        get_policy("bogus")


def test_clamp():
    assert clamp_fraction(-1) == 0.0
    assert clamp_fraction(2) == 1.0
    assert clamp_fraction(0.4) == 0.4


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from(list(LinkKind)))
def test_property_fractions_always_valid(tu, tv, amount, link):
    c = ShareContext(link=link, requester_subtree=tu, victim_subtree=tv,
                     work_amount=amount)
    f = PROPORTIONAL.fraction(c)
    assert 0.0 <= f <= 1.0
    piece = SyntheticWork(amount).split(f)
    assert piece is None or 0 < piece.units < amount


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_property_parent_child_fractions_complementary(t_child, t_rest):
    """Serving down T_c/T_p and serving up (T_p-T_c)/T_p sum to 1."""
    t_parent = t_child + t_rest
    down = PROPORTIONAL.fraction(ctx(LinkKind.TO_CHILD, tu=t_child,
                                     tv=t_parent))
    up = PROPORTIONAL.fraction(ctx(LinkKind.TO_PARENT, tu=t_parent,
                                   tv=t_child))
    assert down + up == pytest.approx(1.0)
