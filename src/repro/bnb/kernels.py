"""Vectorised child-batch kernels for the B&B bound layer.

The scalar bound contract (:mod:`repro.bnb.bounds`) evaluates one child per
call; at millions of bound evaluations per experiment the pure-Python inner
loops dominate wall-clock. This module holds the NumPy kernels that bound
*all* children of an expanded node in one shot:

* :func:`instance_arrays` — int64 views of an instance (processing times,
  their machine-prefix sums, tails), built once and cached on the instance.
* :func:`subset_geometry` / :func:`fronts_matrix` — per-unscheduled-subset
  child geometry (gathered prefix sums, per-child remaining work) and the
  child completion fronts derived from it, via the max-plus prefix form of
  the flow-shop recurrence.
* :func:`child_fronts` / :func:`child_rem_sums` — the same quantities in
  the explicit (non-cached) layout of the ``LowerBound.children`` API.
* :class:`PairKernel` — batched two-machine (optionally lagged) Johnson
  relaxations in closed form: one set of skip-one tables bounds every
  (machine pair, child) cell without walking the Johnson order per child.

Everything front-independent is a pure function of the unscheduled *set*,
so it is cached keyed by the subset bitmask: a depth-first search revisits
the same subsets thousands of times (every permutation of a prefix leads to
the same remaining set), which amortises the table construction to nearly
nothing on instances of interval-B&B scale.

The closed form: the two-machine (lagged) Johnson walk is max-plus linear.
For a fixed step sequence with times ``(a_t, lag_t, b_t)`` seeded at
``(ta0, tb0)``, the final second-machine time is::

    tb_fin = max(tb0 + SBtot, ta0 + SBtot + max_t X_t)
    X_t    = SA_{t+1} + lag_t + b_t - SB_{t+1}

with ``SA``/``SB`` the prefix sums of ``a``/``b``. Removing step ``t``
(child ``c`` skips its own job) shifts the suffix, giving::

    tb_fin(skip t) = max(tb0 + B_t, ta0 + A_t)
    B_t = SBtot - b_t
    A_t = SBtot + max(NMAX_t - b_t, RMAX_{t+1} - a_t)

where ``NMAX_t = max_{s<t} X_s`` and ``RMAX_t = max_{s>=t} X_s`` — one
forward and one reverse ``maximum.accumulate`` replace the per-step walk.

All kernels are integer-exact: they perform the same int arithmetic as the
scalar reference implementations, so batched and scalar bounds are
bit-identical (enforced by ``tests/test_bnb_kernels.py``).
"""

from __future__ import annotations

import numpy as np

_CACHE_ATTR = "_kernel_arrays"
_GEOM_ATTR = "_kernel_geometry"

#: "no prefix/suffix yet" sentinel in the skip-one tables: far below any
#: reachable completion time, far above int64 underflow when summed.
NEG = -(1 << 40)

#: subset caches self-clear at this many entries (bounds memory on large
#: instances; a 10-job tree has at most 2**10 subsets and never trips it).
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


def subset_geometry(instance, key, remaining):
    """Front-independent child geometry of one unscheduled subset, cached.

    Returns ``(jobs, cc0, cc1, rsT, rsvec)``: the subset as an ascending
    index array, ``cp``/``cpp`` gathered on it (columns per child),
    ``rsT[i, c]`` the machine-``i`` unscheduled work of child ``c`` (the
    subset minus ``jobs[c]``), and ``rsvec`` the subset's own per-machine
    work. ``key`` is the subset bitmask; the cache is shared by everything
    attached to the instance.
    """
    geom = instance.__dict__.get(_GEOM_ATTR)
    if geom is None:
        geom = instance.__dict__[_GEOM_ATTR] = {}
    entry = geom.get(key)
    if entry is None:
        if len(geom) >= CACHE_CAP:
            geom.clear()
        p, cp, cpp, _ = instance_arrays(instance)
        jobs = np.asarray(remaining, dtype=np.intp)
        ps = p[:, jobs]
        rsvec = ps.sum(axis=1)
        entry = (jobs, cp[:, jobs], cpp[:, jobs], rsvec[:, None] - ps, rsvec)
        geom[key] = entry
    return entry


def fronts_matrix(front, cc0, cc1):
    """(m, k) child completion fronts, one column per child.

    Column ``c`` equals ``instance.advance(front, jobs[c])`` for the subset
    behind ``cc0``/``cc1`` (:func:`subset_geometry`). Uses the closed form
    ``nf[i] = cp[i, j] + max_{l<=i}(front[l] - cpp[l, j])`` of the
    recurrence ``nf[i] = max(nf[i-1], front[i]) + p[i, j]`` (valid because
    fronts are non-negative), i.e. one ``maximum.accumulate`` instead of a
    per-child machine loop.
    """
    if type(front) is not np.ndarray:   # the engine passes int64 rows back
        front = np.asarray(front, dtype=np.int64)
    g = front[:, None] - cc1
    np.maximum.accumulate(g, axis=0, out=g)
    g += cc0
    return g


def child_fronts(front, jobs, cp, cpp):
    """(k, m) completion fronts after appending each of ``jobs`` to ``front``."""
    return fronts_matrix(front, cp[:, jobs], cpp[:, jobs]).T


def child_rem_sums(rem_sum, jobs, p):
    """(k, m) per-machine unscheduled work after removing each of ``jobs``.

    ``rem_sum`` is the parent's per-machine unscheduled work (children's
    jobs still included, as the engine maintains it).
    """
    return np.asarray(rem_sum, dtype=np.int64)[None, :] - p[:, jobs].T


class PairKernel:
    """Batched closed-form two-machine relaxations over machine pairs.

    Owns the attach-time constants of a pair bound — per-pair step times in
    Johnson-order layout, tails after the second machine, seed machine
    indices — plus the scratch used to filter orders to a subset. One
    instance serves both Johnson variants: pass ``lags`` for the Mitten
    (lagged) transform, leave it None for the zero-lag walk.

    :meth:`tables` builds the skip-one tables ``(A2, B2)`` of a subset
    (child ``c`` of pair ``q`` is bounded by
    ``max(g[u_q, c] + A2[q, c], g[v_q, c] + B2[q, c])`` — see the module
    docstring for the derivation; the per-pair min tail after ``v`` is
    folded in). :meth:`eval` applies them to a child-front matrix.
    """

    def __init__(self, p, tails, pairs, orders, lags=None):
        u = np.asarray([pair[0] for pair in pairs], dtype=np.intp)
        v = np.asarray([pair[1] for pair in pairs], dtype=np.intp)
        npairs, n = orders.shape
        rows = np.arange(npairs)[:, None]
        a = p[u]
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
        self._uv = np.ascontiguousarray(np.stack([u, v]))
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

    def eval(self, tables, g):
        """(k,) per-child maxima over pairs given child fronts ``g`` (m, k)."""
        A2, B2 = tables
        seeds = g[self._uv]                 # (2, npairs, k): front at u / v
        cand = seeds[0] + A2
        np.maximum(cand, seeds[1] + B2, out=cand)
        return np.maximum.reduce(cand, axis=0)


__all__ = ["instance_arrays", "subset_geometry", "fronts_matrix",
           "child_fronts", "child_rem_sums", "PairKernel",
           "NEG", "CACHE_CAP"]
