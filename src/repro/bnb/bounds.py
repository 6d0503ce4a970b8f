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

Two ways to evaluate a bound, bit-identical (golden-tested in
``tests/test_bnb_kernels.py``):

* the scalar reference — ``frame(remaining)`` once per expanded node, then
  ``child(front_child, job, frame_data, rem_sum_child)`` once per child,
  with the unscheduled mask published through :meth:`LowerBound.set_mask`
  reflecting the *child's* unscheduled set. Tests and the admissibility
  properties use it;
* the max-plus table — every bound here is max-plus linear in the
  parent's front, so ``table(key, remaining)`` (``key`` the bitmask of
  ``remaining``) returns a ``(k, m)`` table ``T`` with child ``c``'s
  bound ``max_l(front[l] + T[c, l])``
  (:func:`repro.bnb.kernels.child_bounds`). ``T`` depends on the subset
  only and is cached per bitmask, which a DFS revisits constantly. Each
  bound supplies just its *seed table* ``Add[i, c]`` — the work that must
  still follow machine ``i``'s completion in child ``c``'s relaxation —
  and :func:`repro.bnb.kernels.maxplus_table` folds the child's own
  completion front into it. This is the engine's only path.

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
        # A scalar caller publishes its unscheduled mask here before
        # child() calls; a shared list avoids building per-child job sets
        # in the loop. Instance-level: two callers (hence two bound
        # instances) must never see each other's masks.
        self._mask: list[bool] | None = None
        # subset bitmask -> max-plus table; see table()
        self._tables: dict[int, np.ndarray] = {}

    def attach(self, instance: FlowshopInstance) -> "LowerBound":
        """Bind to an instance and precompute; returns self for chaining."""
        self.instance = instance
        self._tables = {}
        self._precompute()
        return self

    def _precompute(self) -> None:
        """Optional instance-level precomputation hook."""

    def set_mask(self, unscheduled: list[bool]) -> None:
        """Adopt the caller's (live, shared) unscheduled mask."""
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

    # -- the max-plus table ---------------------------------------------------

    def table(self, key: int, remaining: Sequence[int]) -> np.ndarray:
        """The ``(k, m)`` max-plus table of one unscheduled subset, cached.

        ``key`` is the bitmask of ``remaining`` (the parent's unscheduled
        jobs, child order). Child ``c`` of a node with completion front
        ``front`` is bounded by ``max_l(front[l] + T[c, l])`` —
        :func:`repro.bnb.kernels.child_bounds` — bit-identical to the
        scalar :meth:`child` call for ``remaining[c]``. The cache
        self-clears at ``kernels.CACHE_CAP`` entries.
        """
        tables = self._tables
        t = tables.get(key)
        if t is None:
            if len(tables) >= kernels.CACHE_CAP:
                tables.clear()
            p = kernels.instance_arrays(self.instance)[0]
            jobs = np.asarray(remaining, dtype=np.intp)
            ps = p[:, jobs]
            rsT = ps.sum(axis=1, keepdims=True) - ps
            t = tables[key] = kernels.maxplus_table(
                self.instance, jobs, self._seed(jobs, rsT))
        return t

    @abstractmethod
    def _seed(self, jobs: np.ndarray, rsT: np.ndarray) -> np.ndarray:
        """The ``(m, k)`` seed table of a subset (see module docstring).

        ``rsT[i, c]`` is machine ``i``'s unscheduled work once child ``c``
        (job ``jobs[c]``) is scheduled; entry ``[i, c]`` is the most work
        this bound puts after machine ``i``'s completion in child ``c``,
        or ``kernels.NEG`` where it has no term on ``i``.
        """


class TrivialBound(LowerBound):
    """Last machine only: front[m-1] + remaining work on it. Weak; tests."""

    name = "trivial"

    def frame(self, remaining: Sequence[int]) -> None:
        return None

    def child(self, front, job, frame_data, rem_sum) -> int:
        return front[-1] + rem_sum[-1]

    def _seed(self, jobs, rsT):
        add = np.full_like(rsT, kernels.NEG)
        add[-1] = rsT[-1]
        return add


class OneMachineBound(LowerBound):
    """The classical machine-based bound (LB1).

    The per-frame "smallest unscheduled tail after machine i" is found by
    walking a tail-sorted job order (precomputed at attach) until the first
    unscheduled job — O(#scheduled) amortised instead of O(#remaining),
    which matters because the scalar reference runs ``frame`` once per
    expanded node. Its caller publishes the unscheduled mask through
    :meth:`set_mask`; when no mask is available (stand-alone use) the plain
    scan is used.
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

    def _seed(self, jobs, rsT):
        tails = kernels.instance_arrays(self.instance)[3]
        return rsT + tails[:, jobs].min(axis=1, keepdims=True)


class _PairRelaxationBound(LowerBound):
    """Common machinery of the two-machine relaxation bounds.

    Subclasses provide the per-pair job order (plain Johnson or
    lag-transformed) and the scalar walk; the seed table is shared — a
    :class:`repro.bnb.kernels.PairKernel` holding the closed-form
    skip-one tables (``lags=None`` for the zero-lag variant), scattered by
    max onto each pair's machines ``u`` and ``v``.

    ``pairs``: ``"adjacent"`` (u, u+1), ``"last"`` (u, m-1), ``"all"``
    (every u < v), or an explicit list.

    The scalar reference skips a pair when the child has no unscheduled
    work on its first machine; with strictly positive processing times
    that only happens for an empty unscheduled set, where the pair value
    never exceeds the trivial floor — so the table needs no such mask to
    stay bit-identical.
    """

    def __init__(self, pairs: str | list[tuple[int, int]] = "adjacent") -> None:
        super().__init__()
        self.pairs_spec = pairs
        self.pairs: list[tuple[int, int]] = []
        self._orders: list[list[int]] = []
        self._kernel: kernels.PairKernel | None = None
        # pair machine indices u / v, as index arrays
        self._u: np.ndarray | None = None
        self._v: np.ndarray | None = None

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
        self._u = np.asarray([u for u, _ in self.pairs], dtype=np.intp)
        self._v = np.asarray([v for _, v in self.pairs], dtype=np.intp)
        self._kernel = kernels.PairKernel(
            p, tails, self.pairs, np.asarray(self._orders, dtype=np.intp),
            lags=self._kernel_lags())

    def frame(self, remaining: Sequence[int]) -> list[int]:
        tails = self.instance.tails
        return [min(tails[v][j] for j in remaining)
                for _, v in self.pairs]

    def _seed(self, jobs, rsT):
        A2, B2 = self._kernel.tables(jobs)
        add = np.full_like(rsT, kernels.NEG)
        add[-1] = rsT[-1]                    # never below the trivial bound
        np.maximum.at(add, self._u, A2)      # pairs may share a machine
        np.maximum.at(add, self._v, B2)
        return add


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
        self._tables = {}
        for c in self.components:
            c.attach(instance)
        return self

    def frame(self, remaining: Sequence[int]) -> list[Any]:
        return [c.frame(remaining) for c in self.components]

    def child(self, front, job, frame_data, rem_sum) -> int:
        return max(c.child(front, job, fd, rem_sum)
                   for c, fd in zip(self.components, frame_data))

    def _seed(self, jobs, rsT):
        return np.maximum.reduce([c._seed(jobs, rsT)
                                  for c in self.components])

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
