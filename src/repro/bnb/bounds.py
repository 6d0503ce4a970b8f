"""Lower bounds for partial flow-shop schedules.

The paper prunes with "the well-known algorithm proposed in [16]" — the
Lenstra/Lageweg/Rinnooy Kan (LLRK) bounding scheme, which combines
one-machine and two-machine (Johnson) relaxations. We implement:

* :class:`OneMachineBound` — for each machine i: completion of the prefix on
  i, plus all unscheduled work on i, plus the smallest unscheduled tail
  after i. O(m) per child with O(m·|remaining|) per-frame precomputation.
* :class:`JohnsonPairBound` — for machine pairs (u, v): the optimal
  two-machine makespan of the unscheduled jobs (Johnson's rule, order
  precomputed per pair at attach time) seeded with the prefix's machine
  ready times, plus the smallest tail after v. Stronger, ~|pairs|·|remaining|
  per child.
* :class:`JohnsonLagBound` — the same relaxation with the in-between
  machines folded into job lags: the full LLRK two-machine bound.
* :class:`MaxBound` — pointwise maximum of component bounds (LLRK style).
* :class:`TrivialBound` — last-machine-only; the weak oracle used in tests.

All bounds are *admissible*: they never exceed the best makespan reachable
below the node (property-tested against exhaustive enumeration).

Engine contract: ``attach`` once per instance; then one of three paths,
all bit-identical (golden-tested in ``tests/test_bnb_kernels.py``):

* the scalar reference path — ``frame(remaining)`` once per expanded node,
  then ``child(front_child, job, frame_data, rem_sum_child)`` once per
  child, with the engine's unscheduled mask (published through
  :meth:`LowerBound.set_mask`) reflecting the *child's* unscheduled set;
* the batched kernel path — ``children(front_parent, remaining,
  frame_data, rem_sum_parent)`` once per expanded node, returning the
  bounds of *all* children as an int64 ndarray (order of ``remaining``);
  pass ``frame_data=None`` to let the bound derive its frame minima
  internally (same integer math);
* the subset-cached path — ``children_cached(key, front_parent,
  remaining)`` with ``key`` the bitmask of ``remaining``: like
  ``children`` but with every front-independent quantity (child geometry,
  Johnson skip-one tables, frame minima) cached per subset, which a DFS
  revisits constantly. This is the engine's hot path.

To keep the per-child cost O(m), frame-level minima are taken over the
*parent's* remaining set (they include the child's own job — a relaxation
that only lowers the bound, hence stays admissible).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..sim.errors import SimConfigError
from .flowshop import FlowshopInstance
from .johnson import johnson_order, lag_order
from . import kernels


def _parse_pairs(spec: str | list[tuple[int, int]], m: int,
                 who: str) -> list[tuple[int, int]]:
    """Resolve a machine-pair spec: ``adjacent | last | all`` or explicit."""
    if spec == "adjacent":
        pairs = [(u, u + 1) for u in range(m - 1)]
    elif spec == "last":
        pairs = [(u, m - 1) for u in range(m - 1)]
    elif spec == "all":
        pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    elif isinstance(spec, list):
        for u, v in spec:
            if not (0 <= u < v < m):
                raise SimConfigError(f"bad machine pair ({u}, {v})")
        pairs = list(spec)
    else:
        raise SimConfigError(f"bad pairs spec {spec!r}")
    if not pairs:
        raise SimConfigError(f"{who} needs >= 1 machine pair "
                             "(single-machine instance?)")
    return pairs


class LowerBound(ABC):
    """A pluggable admissible lower bound; see module docstring."""

    name = "abstract"

    def __init__(self) -> None:
        self.instance: FlowshopInstance | None = None
        # The engine publishes its unscheduled mask here before child()
        # calls; a shared list avoids building per-child job sets in the
        # hot loop. Instance-level: two engines (hence two bound instances)
        # must never see each other's masks.
        self._mask: list[bool] | None = None
        # subset bitmask -> (cc0, cc1, rsT, frame tables); see children_cached
        self._cache: dict[int, tuple] = {}

    def attach(self, instance: FlowshopInstance) -> "LowerBound":
        """Bind to an instance and precompute; returns self for chaining."""
        self.instance = instance
        self._cache = {}
        self._precompute()
        return self

    def _precompute(self) -> None:
        """Optional instance-level precomputation hook."""

    def set_mask(self, unscheduled: list[bool]) -> None:
        """Adopt the engine's (live, shared) unscheduled mask."""
        self._mask = unscheduled

    @abstractmethod
    def frame(self, remaining: Sequence[int]) -> Any:
        """Per-expanded-node precomputation over its unscheduled set."""

    @abstractmethod
    def child(self, front: Sequence[int], job: int, frame_data: Any,
              rem_sum: Sequence[int]) -> int:
        """Bound for the child obtained by scheduling ``job``.

        Args:
            front: machine completion times *after* scheduling ``job``.
            job: the job just appended.
            frame_data: whatever :meth:`frame` returned for the parent.
            rem_sum: per-machine unscheduled work, ``job`` already excluded.
        """

    # -- batched kernel layer --------------------------------------------------

    def children(self, front: Sequence[int], remaining: Sequence[int],
                 frame_data: Any, rem_sum: Sequence[int],
                 fronts: np.ndarray | None = None,
                 rem_sums: np.ndarray | None = None) -> np.ndarray:
        """Bounds of *all* children of an expanded node, one vector call.

        Args:
            front: the parent's machine completion times.
            remaining: the parent's unscheduled jobs (child order).
            frame_data: :meth:`frame` result for ``remaining``, or None to
                let the bound derive its frame minima internally (batched
                callers skip the scalar ``frame`` entirely).
            rem_sum: the parent's per-machine unscheduled work (children's
                jobs still included).
            fronts / rem_sums: optional precomputed child fronts and child
                rem-sums (callers may share them across bounds); computed
                here when absent.

        Returns an int64 array, entry ``c`` bit-identical to the scalar
        ``child`` call for ``remaining[c]``.
        """
        jobs = np.asarray(remaining, dtype=np.intp)
        if fronts is None or rem_sums is None:
            p, cp, cpp, _ = kernels.instance_arrays(self.instance)
            if fronts is None:
                fronts = kernels.child_fronts(front, jobs, cp, cpp)
            if rem_sums is None:
                rem_sums = kernels.child_rem_sums(rem_sum, jobs, p)
        g = np.ascontiguousarray(fronts.T)
        rsT = np.ascontiguousarray(rem_sums.T)
        return self._frame_eval(self._frame_tables(jobs, rsT), g, rsT)

    def children_cached(self, key: int, front: Sequence[int],
                        remaining: Sequence[int]) -> tuple[np.ndarray,
                                                           np.ndarray]:
        """Bounds *and* fronts of all children of one frame, subset-cached.

        ``key`` is the bitmask of ``remaining``. Returns ``(lbs, fronts)``
        with ``lbs`` bit-identical to :meth:`children` and ``fronts`` the
        (k, m) child completion fronts (the engine reuses row ``c`` as the
        front of the child it enters). Front-independent per-subset data —
        child geometry and :meth:`_frame_tables` output — is cached keyed
        by ``key``; only the front-dependent :meth:`_frame_eval` runs per
        call. Caches self-clear at ``kernels.CACHE_CAP`` entries.
        """
        cache = self._cache
        entry = cache.get(key)
        if entry is None:
            if len(cache) >= kernels.CACHE_CAP:
                cache.clear()
            jobs, cc0, cc1, rsT, _ = kernels.subset_geometry(
                self.instance, key, remaining)
            entry = (cc0, cc1, rsT, self._frame_tables(jobs, rsT))
            cache[key] = entry
        cc0, cc1, rsT, tables = entry
        g = kernels.fronts_matrix(front, cc0, cc1)
        return self._frame_eval(tables, g, rsT), g.T

    def _frame_tables(self, jobs: np.ndarray, rsT: np.ndarray) -> Any:
        """Front-independent tables of one subset (cacheable).

        ``rsT[i, c]`` is machine ``i``'s unscheduled work for child ``c``.
        The fallback keeps the scalar :meth:`frame` result (a function of
        the subset only) plus the subset itself for the scalar loop.
        """
        return jobs, self.frame(jobs.tolist())

    def _frame_eval(self, tables: Any, g: np.ndarray,
                    rsT: np.ndarray) -> np.ndarray:
        """Per-child bounds from :meth:`_frame_tables` output and child
        fronts ``g`` (m, k, one column per child).

        Reference fallback: one scalar :meth:`child` call per job, with the
        engine's mask discipline (the child's own job flipped out around
        the call) so mask-walking bounds see the child's set.
        """
        jobs, frame_data = tables
        fronts = g.T
        rem_sums = rsT.T
        mask = self._mask
        out = np.empty(jobs.shape[0], dtype=np.int64)
        for c, j in enumerate(jobs):
            if mask is not None:
                mask[j] = False
            out[c] = self.child(fronts[c], j, frame_data, rem_sums[c])
            if mask is not None:
                mask[j] = True
        return out


class TrivialBound(LowerBound):
    """Last machine only: front[m-1] + remaining work on it. Weak; tests."""

    name = "trivial"

    def frame(self, remaining: Sequence[int]) -> None:
        return None

    def child(self, front, job, frame_data, rem_sum) -> int:
        return front[-1] + rem_sum[-1]

    def _frame_tables(self, jobs, rsT):
        return None

    def _frame_eval(self, tables, g, rsT):
        return g[-1] + rsT[-1]


class OneMachineBound(LowerBound):
    """The classical machine-based bound (LB1).

    The per-frame "smallest unscheduled tail after machine i" is found by
    walking a tail-sorted job order (precomputed at attach) until the first
    unscheduled job — O(#scheduled) amortised instead of O(#remaining),
    which matters because ``frame`` runs once per expanded node. The engine
    publishes its unscheduled mask through :meth:`set_mask`; when no mask
    is available (stand-alone use) the plain scan is used.
    """

    name = "one-machine"

    def __init__(self) -> None:
        super().__init__()
        self._tail_order: list[list[int]] = []

    def _precompute(self) -> None:
        tails = self.instance.tails
        n = self.instance.n_jobs
        self._tail_order = [sorted(range(n), key=lambda j: tails[i][j])
                            for i in range(self.instance.n_machines)]

    def frame(self, remaining: Sequence[int]) -> list[int]:
        # smallest tail after machine i over the unscheduled set (parent's)
        tails = self.instance.tails
        mask = self._mask
        if mask is None:
            return [min(tails[i][j] for j in remaining)
                    for i in range(self.instance.n_machines)]
        out = []
        for i in range(self.instance.n_machines):
            row = tails[i]
            for j in self._tail_order[i]:
                if mask[j]:
                    out.append(row[j])
                    break
        return out

    def child(self, front, job, frame_data, rem_sum) -> int:
        best = 0
        min_tails = frame_data
        for i in range(len(front)):
            v = front[i] + rem_sum[i] + min_tails[i]
            if v > best:
                best = v
        return best

    def _frame_tables(self, jobs, rsT):
        # min tails folded into the per-child work column: the eval is then
        # a single add + column-max
        _, _, _, tails = kernels.instance_arrays(self.instance)
        return rsT + tails[:, jobs].min(axis=1)[:, None]

    def _frame_eval(self, tables, g, rsT):
        return np.maximum.reduce(g + tables, axis=0)


class _PairRelaxationBound(LowerBound):
    """Common machinery of the two-machine relaxation bounds.

    Subclasses provide the per-pair job order (plain Johnson or
    lag-transformed) and the scalar walk; the batched path is shared —
    a :class:`repro.bnb.kernels.PairKernel` holding the closed-form
    skip-one tables (``lags=None`` for the zero-lag variant).

    ``pairs``: ``"adjacent"`` (u, u+1), ``"last"`` (u, m-1), ``"all"``
    (every u < v), or an explicit list.

    The scalar reference skips a pair when the child has no unscheduled
    work on its first machine; with strictly positive processing times
    that only happens for an empty unscheduled set, where the pair value
    never exceeds the trivial floor — so the batched path needs no such
    mask to stay bit-identical.
    """

    def __init__(self, pairs: str | list[tuple[int, int]] = "adjacent") -> None:
        super().__init__()
        self.pairs_spec = pairs
        self.pairs: list[tuple[int, int]] = []
        self._orders: list[list[int]] = []
        self._kernel: kernels.PairKernel | None = None

    def _make_order(self, u: int, v: int) -> list[int]:
        raise NotImplementedError

    def _kernel_lags(self):
        """(npairs, n) lag matrix for the kernel, or None for zero lags."""
        return None

    def _precompute(self) -> None:
        m = self.instance.n_machines
        self.pairs = _parse_pairs(self.pairs_spec, m, type(self).__name__)
        self._orders = [self._make_order(u, v) for u, v in self.pairs]
        p, _, _, tails = kernels.instance_arrays(self.instance)
        self._kernel = kernels.PairKernel(
            p, tails, self.pairs, np.asarray(self._orders, dtype=np.intp),
            lags=self._kernel_lags())

    def frame(self, remaining: Sequence[int]) -> list[int]:
        tails = self.instance.tails
        return [min(tails[v][j] for j in remaining)
                for _, v in self.pairs]

    def _frame_tables(self, jobs, rsT):
        return self._kernel.tables(jobs)

    def _frame_eval(self, tables, g, rsT):
        out = self._kernel.eval(tables, g)
        floor = g[-1] + rsT[-1]              # never below the trivial bound
        np.maximum(out, floor, out=out)
        return out


class JohnsonPairBound(_PairRelaxationBound):
    """Two-machine (Johnson) relaxations over a set of machine pairs.

    Each pair's Johnson order over all jobs is precomputed at attach; at
    bound time the order is walked skipping scheduled jobs.
    """

    name = "johnson"

    def _make_order(self, u: int, v: int) -> list[int]:
        p = self.instance.p
        return johnson_order(p[u], p[v])

    def child(self, front, job, frame_data, rem_sum) -> int:
        p = self.instance.p
        mask = self._mask
        best = front[-1] + rem_sum[-1]  # never worse than the trivial bound
        for k, (u, v) in enumerate(self.pairs):
            if rem_sum[u] == 0:
                continue
            pu, pv = p[u], p[v]
            ta, tb = front[u], front[v]
            for j in self._orders[k]:
                # walk Johnson order, keeping only unscheduled jobs; the
                # scheduled ones have rem contribution 0 on every machine
                if mask[j]:
                    ta += pu[j]
                    if ta > tb:
                        tb = ta
                    tb += pv[j]
            val = tb + frame_data[k]
            if val > best:
                best = val
        return best


class JohnsonLagBound(_PairRelaxationBound):
    """Two-machine relaxations *with time lags* — the full LLRK bound.

    For a machine pair (u, v), the machines strictly between them are
    relaxed to pure delays: job j needs lag_j = sum of its processing on
    the in-between machines before it can enter v. Mitten's theorem makes
    Johnson's rule on the transformed times (a+lag, lag+b) exactly optimal
    for the relaxation, so walking the precomputed transformed order over
    the unscheduled jobs yields an admissible bound that dominates the
    zero-lag :class:`JohnsonPairBound` on the same pairs.
    """

    name = "johnson-lag"

    def __init__(self, pairs: str | list[tuple[int, int]] = "adjacent") -> None:
        super().__init__(pairs)
        self._lags: list[list[int]] = []

    def _make_order(self, u: int, v: int) -> list[int]:
        p = self.instance.p
        n = self.instance.n_jobs
        lag = [sum(p[k][j] for k in range(u + 1, v)) for j in range(n)]
        self._lags.append(lag)
        return lag_order(p[u], p[v], lag)

    def _kernel_lags(self):
        return np.asarray(self._lags, dtype=np.int64)

    def _precompute(self) -> None:
        self._lags = []
        super()._precompute()

    def child(self, front, job, frame_data, rem_sum) -> int:
        p = self.instance.p
        mask = self._mask
        best = front[-1] + rem_sum[-1]
        for k, (u, v) in enumerate(self.pairs):
            if rem_sum[u] == 0:
                continue
            pu, pv = p[u], p[v]
            lag = self._lags[k]
            ta, tb = front[u], front[v]
            for j in self._orders[k]:
                if mask[j]:
                    ta += pu[j]
                    ready = ta + lag[j]
                    if ready > tb:
                        tb = ready
                    tb += pv[j]
            val = tb + frame_data[k]
            if val > best:
                best = val
        return best


class MaxBound(LowerBound):
    """Pointwise maximum of several bounds (the full LLRK combination)."""

    name = "max"

    def __init__(self, components: list[LowerBound]) -> None:
        super().__init__()
        if not components:
            raise SimConfigError("MaxBound needs components")
        self.components = components
        self.name = "max(" + ",".join(c.name for c in components) + ")"

    def attach(self, instance: FlowshopInstance) -> "MaxBound":
        self.instance = instance
        self._cache = {}
        for c in self.components:
            c.attach(instance)
        return self

    def frame(self, remaining: Sequence[int]) -> list[Any]:
        return [c.frame(remaining) for c in self.components]

    def child(self, front, job, frame_data, rem_sum) -> int:
        return max(c.child(front, job, fd, rem_sum)
                   for c, fd in zip(self.components, frame_data))

    def _frame_tables(self, jobs, rsT):
        return [c._frame_tables(jobs, rsT) for c in self.components]

    def _frame_eval(self, tables, g, rsT):
        comps = self.components
        out = comps[0]._frame_eval(tables[0], g, rsT)
        for c, t in zip(comps[1:], tables[1:]):
            np.maximum(out, c._frame_eval(t, g, rsT), out=out)
        return out

    def set_mask(self, unscheduled: list[bool]) -> None:
        self._mask = unscheduled
        for c in self.components:
            c.set_mask(unscheduled)


def get_bound(name: str) -> LowerBound:
    """Bound factory.

    Names: ``trivial``, ``lb1``, ``johnson[:pairs]``,
    ``johnson-lag[:pairs]``, ``llrk`` (lb1 + zero-lag adjacent pairs),
    ``llrk-full`` (lb1 + lag-aware pairs). ``pairs`` is
    ``adjacent | last | all``.
    """
    if name == "trivial":
        return TrivialBound()
    if name in ("lb1", "one-machine"):
        return OneMachineBound()
    if name.startswith("johnson-lag"):
        pairs = name.split(":", 1)[1] if ":" in name else "adjacent"
        return JohnsonLagBound(pairs=pairs)
    if name.startswith("johnson"):
        pairs = name.split(":", 1)[1] if ":" in name else "adjacent"
        return JohnsonPairBound(pairs=pairs)
    if name == "llrk":
        return MaxBound([OneMachineBound(), JohnsonPairBound("adjacent")])
    if name == "llrk-full":
        return MaxBound([OneMachineBound(), JohnsonLagBound("adjacent")])
    raise SimConfigError(f"unknown bound {name!r}; known: trivial, lb1, "
                         "johnson[:pairs], johnson-lag[:pairs], llrk, "
                         "llrk-full (pairs: adjacent|last|all)")


__all__ = ["LowerBound", "TrivialBound", "OneMachineBound",
           "JohnsonPairBound", "JohnsonLagBound", "MaxBound", "get_bound"]
