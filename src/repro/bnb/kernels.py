"""The max-plus bound table behind the B&B engine's child enumeration.

The scalar bound contract (:mod:`repro.bnb.bounds`) evaluates one child per
call; at millions of bound evaluations per experiment the pure-Python inner
loops dominate wall-clock. Every bound shipped in this repo is *max-plus
linear* in the parent's completion front ``f``: the bound of child ``c``
(the parent's ``c``-th unscheduled job ``j``) is::

    lb[c] = max_l (f[l] + T[c, l])

for a ``(k, m)`` table ``T`` that depends on the unscheduled *set* only.
This module builds that table and evaluates it:

* :func:`instance_arrays` — int64 views of an instance (processing times,
  their machine-prefix sums, tails), built once and cached on the instance.
* :func:`maxplus_table` — ``T`` from a bound's *seed table* ``Add[i, c]``:
  the work that must still follow machine ``i``'s completion in child
  ``c``'s relaxation (``NEG`` where the bound has no term on ``i``).
* :func:`child_bounds` — the one evaluator: ``T`` applied to a front.
* :class:`PairKernel` — the seed rows of the two-machine (optionally
  lagged) Johnson relaxations, in closed form: one set of skip-one tables
  covers every (machine pair, child) cell without walking the Johnson
  order per child.

Why ``T`` exists: the child's front is the flow-shop recurrence
``nf[i] = max(nf[i-1], f[i]) + p[i, j]``, whose closed form (fronts are
non-negative) is ``nf[i] = cp[i, j] + max_{l<=i}(f[l] - cpp[l, j])`` with
``cp``/``cpp`` the inclusive/exclusive machine-prefix sums of ``p``. A
bound ``max_i(nf[i] + Add[i, c])`` then regroups by ``l``::

    T[c, l] = max_{i>=l}(cp[i, j] + Add[i, c]) - cpp[l, j]

— one reverse ``maximum.accumulate`` per subset. A depth-first search
revisits the same subsets thousands of times (every permutation of a
prefix leads to the same remaining set), so the bound caches ``T`` per
subset bitmask and a frame's enumeration costs one add and one row-max.

The pair seed in closed form: the two-machine (lagged) Johnson walk is
max-plus linear too. For a fixed step sequence with times
``(a_t, lag_t, b_t)`` seeded at ``(ta0, tb0)``, the final second-machine
time is::

    tb_fin = max(tb0 + SBtot, ta0 + SBtot + max_t X_t)
    X_t    = SA_{t+1} + lag_t + b_t - SB_{t+1}

with ``SA``/``SB`` the prefix sums of ``a``/``b``. Removing step ``t``
(child ``c`` skips its own job) shifts the suffix, giving::

    tb_fin(skip t) = max(tb0 + B_t, ta0 + A_t)
    B_t = SBtot - b_t
    A_t = SBtot + max(NMAX_t - b_t, RMAX_{t+1} - a_t)

where ``NMAX_t = max_{s<t} X_s`` and ``RMAX_t = max_{s>=t} X_s`` — one
forward and one reverse ``maximum.accumulate`` replace the per-step walk.
``A_t``/``B_t`` are the pair's seed entries on machines ``u``/``v``.

All of it is integer-exact: the same int arithmetic as the scalar
reference implementations, so table and scalar bounds are bit-identical
(enforced by ``tests/test_bnb_kernels.py``).
"""

from __future__ import annotations

import numpy as np

_CACHE_ATTR = "_kernel_arrays"

#: "no term on this machine" sentinel in seed tables (and "no
#: prefix/suffix yet" in the skip-one tables): far below any reachable
#: completion time, far above int64 underflow when summed.
NEG = -(1 << 40)

#: per-subset table caches self-clear at this many entries (bounds memory
#: on large instances; a 10-job tree has at most 2**10 subsets and never
#: trips it).
CACHE_CAP = 1 << 14


def instance_arrays(instance):
    """``(p, cp, cpp, tails)`` int64 arrays for ``instance``, cached.

    ``p`` is the (m, n) processing-time matrix; ``cp[i, j]`` the prefix sum
    of job ``j``'s times over machines ``0..i``; ``cpp`` the same shifted by
    one machine (``cpp[0] == 0``); ``tails`` the instance's tail matrix.

    The cache rides in the instance's ``__dict__`` (FlowshopInstance is a
    frozen dataclass without slots), so every bound and engine attached to
    the same instance shares one set of arrays.
    """
    cache = instance.__dict__.get(_CACHE_ATTR)
    if cache is None:
        p = np.asarray(instance.p, dtype=np.int64)
        cp = np.cumsum(p, axis=0)
        cpp = np.empty_like(cp)
        cpp[0] = 0
        cpp[1:] = cp[:-1]
        tails = np.asarray(instance.tails, dtype=np.int64)
        cache = (p, cp, cpp, tails)
        instance.__dict__[_CACHE_ATTR] = cache
    return cache


def maxplus_table(instance, jobs, add):
    """The ``(k, m)`` table ``T`` of a subset from its ``(m, k)`` seed.

    ``jobs`` is the subset (child order), ``add`` the bound's seed table
    (see the module docstring); row ``c`` of the result bounds the child
    that appends ``jobs[c]``.
    """
    _, cp, cpp, _ = instance_arrays(instance)
    t = cp[:, jobs] + add
    np.maximum.accumulate(t[::-1], axis=0, out=t[::-1])
    t -= cpp[:, jobs]
    return np.ascontiguousarray(t.T)


def child_bounds(table, front):
    """Bounds of all children of a node with completion ``front`` (a list
    of ints), as a list of ints in the table's child order."""
    return np.maximum.reduce(table + front, axis=1).tolist()


class PairKernel:
    """Batched closed-form two-machine relaxations over machine pairs.

    Owns the attach-time constants of a pair bound — per-pair step times in
    Johnson-order layout, tails after the second machine — plus the
    scratch used to filter orders to a subset. One instance serves both
    Johnson variants: pass ``lags`` for the Mitten (lagged) transform,
    leave it None for the zero-lag walk.

    :meth:`tables` builds the skip-one tables ``(A2, B2)`` of a subset:
    child ``c``'s pair-``q`` bound is ``max(nf[u_q] + A2[q, c], nf[v_q] +
    B2[q, c])`` with ``nf`` the child's front — see the module docstring
    for the derivation; the per-pair min tail after ``v`` is folded in.
    """

    def __init__(self, p, tails, pairs, orders, lags=None):
        v = np.asarray([pair[1] for pair in pairs], dtype=np.intp)
        npairs, n = orders.shape
        rows = np.arange(npairs)[:, None]
        a = p[[pair[0] for pair in pairs]]
        b = p[v]
        bl = b if lags is None else b + np.asarray(lags, dtype=np.int64)
        # channel stack in Johnson-order layout: step s of pair q carries
        # (a, b, b + lag, job id) of the s-th job in q's order
        self._big = np.ascontiguousarray(
            np.stack([a[rows, orders], b[rows, orders],
                      bl[rows, orders], orders.astype(np.int64)]))
        self._orders = orders
        self._tails_v = np.ascontiguousarray(
            np.asarray(tails, dtype=np.int64)[v])
        self._rows = rows
        self._mask = np.zeros(n, dtype=bool)
        self._jobpos = np.empty(n, dtype=np.int64)
        self._arange = np.arange(n, dtype=np.int64)

    def tables(self, jobs):
        """Skip-one tables ``(A2, B2)`` of a subset, child-column layout."""
        k = jobs.shape[0]
        mask = self._mask
        mask[jobs] = True
        keep = mask[self._orders]
        mask[jobs] = False
        g = self._big[:, keep].reshape(4, -1, k)
        a, b, bl = g[0], g[1], g[2]
        jobpos = self._jobpos
        jobpos[jobs] = self._arange[:k]
        cidx = jobpos[g[3]]                 # child index of each kept step
        s = np.cumsum(g[:2], axis=2)
        x = s[0] - s[1] + bl                # X_t, see module docstring
        nmax = np.empty_like(x)
        nmax[:, 0] = NEG
        np.maximum.accumulate(x[:, :-1], axis=1, out=nmax[:, 1:])
        rmax = np.empty_like(x)
        rmax[:, -1] = NEG
        np.maximum.accumulate(x[:, :0:-1], axis=1, out=rmax[:, -2::-1])
        mtv = self._tails_v[:, jobs].min(axis=1)
        add = s[1][:, -1:] + mtv[:, None]   # SBtot + min tail after v
        A = np.maximum(nmax - b, rmax - a)
        A += add
        B = add - b
        A2 = np.empty_like(A)
        B2 = np.empty_like(B)
        A2[self._rows, cidx] = A            # step layout -> child layout
        B2[self._rows, cidx] = B
        return A2, B2


__all__ = ["instance_arrays", "maxplus_table", "child_bounds", "PairKernel",
           "NEG", "CACHE_CAP"]
