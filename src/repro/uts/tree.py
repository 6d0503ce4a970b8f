"""UTS tree shapes: the child-count rules (Olivier et al., LCPC'06).

The paper's experiments use **binomial** trees: the root has exactly ``b0``
children; every other node has ``m`` children with probability ``q`` and
none otherwise. With ``m*q`` close to (but below) 1 the tree is a critical
Galton–Watson process: finite, but with unbounded variance in subtree sizes
— the designed worst case for dynamic load balancing.

A **geometric** variant is provided as well (branching factor decaying with
depth, depth-bounded), so the suite covers both canonical UTS families; the
paper's tables only exercise BIN.

:func:`expand` is the **hot path**: one call per quantum of every protocol
run. :func:`child_counts` (with ``rng.decide_unit`` / ``rng.child_states``)
is the **reference** it is tested against, and what the sequential oracle
is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..sim.errors import SimConfigError
from . import rng as uts_rng
from .rng import (_CHILD_INT, _DECIDE_INT, _GOLDEN, _GOLDEN_INT, _M64, _MIX1,
                  _MIX1_INT, _MIX2, _MIX2_INT, _U53, DECIDE_SALT, ONEPASS_MAX,
                  SMALL_BATCH)


@dataclass(frozen=True, slots=True)
class UTSParams:
    """Parameters of one UTS instance.

    Binomial (``variant="bin"``): root has ``b0`` children; non-root nodes
    have ``m`` children with probability ``q``. The paper writes these as
    generator parameters ``(b, q, m, r)``.

    Geometric (``variant="geo"``): expected branching at depth d is
    ``b0 * alpha**d`` (stochastic rounding), truncated at ``depth_max``.
    """

    variant: str = "bin"
    b0: int = 2000
    q: float = 0.4999995
    m: int = 2
    root_seed: int = 599
    alpha: float = 0.85
    depth_max: int = 30
    #: state-mixing function: "splitmix" (vectorised default) or "sha1"
    #: (the original benchmark's mixer family; ~20x slower, for fidelity
    #: demonstrations — see repro.uts.rng)
    rng: str = "splitmix"

    def __post_init__(self) -> None:
        if self.variant not in ("bin", "geo"):
            raise SimConfigError(f"unknown UTS variant {self.variant!r}")
        if self.rng not in ("splitmix", "sha1"):
            raise SimConfigError(f"unknown UTS rng {self.rng!r}")
        if self.b0 < 1:
            raise SimConfigError("b0 must be >= 1")
        if self.variant == "bin":
            if not (0.0 <= self.q <= 1.0):
                raise SimConfigError("q must be in [0, 1]")
            if self.m < 1:
                raise SimConfigError("m must be >= 1")
            if self.m * self.q >= 1.0:
                raise SimConfigError(
                    f"m*q = {self.m * self.q} >= 1: the binomial tree would "
                    "be infinite with positive probability")
        else:
            if not (0.0 < self.alpha < 1.0):
                raise SimConfigError("alpha must be in (0, 1)")
            if self.depth_max < 1:
                raise SimConfigError("depth_max must be >= 1")

    def describe(self) -> str:
        if self.variant == "bin":
            return (f"BIN(b={self.b0} q={self.q:g} m={self.m} "
                    f"r={self.root_seed})")
        return (f"GEO(b={self.b0} alpha={self.alpha:g} "
                f"dmax={self.depth_max} r={self.root_seed})")


def _rng_fns(params: UTSParams):
    if params.rng == "sha1":
        return (uts_rng.sha1_root_state, uts_rng.sha1_decide_unit,
                uts_rng.sha1_child_states)
    return uts_rng.root_state, uts_rng.decide_unit, uts_rng.child_states


def root_frontier(params: UTSParams) -> tuple[np.ndarray, np.ndarray]:
    """(states, depths) of the root's children — the tree minus its root."""
    root_fn, _, children_fn = _rng_fns(params)
    root = root_fn(params.root_seed)
    counts = np.array([params.b0], dtype=np.int64)
    states = children_fn(np.array([root], dtype=np.uint64), counts)
    return states, np.ones(params.b0, dtype=np.int32)


def child_counts(states: np.ndarray, depths: np.ndarray,
                 params: UTSParams) -> np.ndarray:
    """Number of children of each non-root node in the batch — the
    reference rule (float draw ``u < q``), vectorised."""
    _, decide_fn, _ = _rng_fns(params)
    u = decide_fn(states)
    if params.variant == "bin":
        return np.where(u < params.q, params.m, 0).astype(np.int64)
    expected = params.b0 * np.power(params.alpha, depths.astype(np.float64))
    base = np.floor(expected).astype(np.int64)
    counts = base + (u < (expected - base)).astype(np.int64)
    counts[depths >= params.depth_max] = 0
    return counts


def expand(states: np.ndarray, depths: np.ndarray,
           params: UTSParams) -> tuple[np.ndarray, np.ndarray]:
    """Children of a batch of non-root nodes — the hot path of every run.

    Returns (child_states uint64, child_depths int32) in parent-then-index
    order. Deterministic: depends only on node states (+ depth for geo).
    The inputs are never written; a non-empty result is fresh and the
    caller's, the all-leaves result is a shared pair of read-only empties.

    Binomial SplitMix instances (every preset but ``geo_small``) take the
    fused kernel below; ``geo`` and ``sha1`` keep the reference composition
    ``child_counts`` -> ``rng.child_states``, which is also what the oracle
    :func:`repro.uts.sequential.count_tree` is built from.
    """
    if len(states) == 0:
        return _NO_CHILDREN
    consts = _bin_constants(params)
    if consts is not None:
        return _expand_bin(states, depths, consts)
    counts = child_counts(states, depths, params)
    _, _, children_fn = _rng_fns(params)
    children = children_fn(states, counts)
    child_depths = np.repeat(depths, counts) + np.int32(1)
    return children, child_depths.astype(np.int32, copy=False)


_NO_CHILDREN = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32))
for _a in _NO_CHILDREN:
    _a.setflags(write=False)

#: (params, constants) of the instance :func:`_bin_constants` saw last: a
#: run expands one instance, so an identity test replaces a value hash of
#: the eight-field ``UTSParams`` on every call.
_last: tuple = (None, None)


def _bin_constants(params: UTSParams):
    """The fused kernel's constants of ``params``, or None for an instance
    that keeps the reference composition (``geo``, ``sha1``)."""
    global _last
    seen, consts = _last
    if seen is not params:
        consts = _instance_constants(params)
        _last = (params, consts)
    return consts


@lru_cache(maxsize=64)
def _instance_constants(params: UTSParams):
    """(decision limit, child salts, and the same as uint64 — the salts
    once alone and once behind the decision salt) of a binomial SplitMix
    instance, built once per ``params`` value.

    ``decide_unit`` draws ``u = k / 2**53`` from ``k = z >> 11`` with ``z``
    the mixed state word. ``k < 2**53``, so ``u`` and ``q * 2**53`` are
    both exact in float64 and ``u < q  <=>  k < T`` with
    ``T = ceil(q * 2**53)``, i.e. ``z < T << 11`` (``q < 1`` keeps that
    below ``2**64``): one integer compare, no float anywhere.
    """
    if params.variant != "bin" or params.rng != "splitmix":
        return None
    limit = math.ceil(params.q * _U53) << 11
    salts = tuple(((j + 1) * _CHILD_INT) & _M64 for j in range(params.m))
    return (limit, salts, np.uint64(limit), np.array(salts, dtype=np.uint64),
            np.array((_DECIDE_INT,) + salts, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> None:
    """``sim.rng.mix64`` overwriting a uint64 array: array arithmetic wraps
    mod 2**64 silently, so no masks and no ``errstate``."""
    z += _GOLDEN
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31


def _expand_bin(states: np.ndarray, depths: np.ndarray,
                consts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Fused decide + derive for ``bin``/``splitmix`` (see :func:`expand`).

    The one place the hot path chooses by batch size (``uts/rng.py`` has
    the measured crossovers): plain ints up to ``SMALL_BATCH`` (NumPy's
    per-call overhead dwarfs the work), one ``(n, 1+m)`` mix of the
    decision word and every child word up to ``ONEPASS_MAX`` (half the
    array calls, for children of leaves that are thrown away), and above
    that two passes that mix child words for the fertile rows only.
    """
    limit, salts, limit_u, salts_u, words_u = consts
    n = len(states)
    if n > ONEPASS_MAX:
        z = states ^ DECIDE_SALT
        _mix64_inplace(z)
        fertile = z < limit_u
        parents = states[fertile]
        if len(parents) == 0:
            return _NO_CHILDREN
        # (parents, m) in C order is child_states' parent-then-index order
        children = (parents[:, None] ^ salts_u).reshape(-1)
        _mix64_inplace(children)
    elif n > SMALL_BATCH:
        z = states[:, None] ^ words_u
        _mix64_inplace(z)
        fertile = z[:, 0] < limit_u
        # the fertile rows' child columns, still parent-then-index
        children = z[fertile, 1:].reshape(-1)
        if len(children) == 0:
            return _NO_CHILDREN
    else:
        cs: list[int] = []
        cd: list[int] = []
        for s, d in zip(states.tolist(), depths.tolist()):
            z = ((s ^ _DECIDE_INT) + _GOLDEN_INT) & _M64
            z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
            z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
            if z ^ (z >> 31) < limit:
                d += 1
                for salt in salts:
                    z = ((s ^ salt) + _GOLDEN_INT) & _M64
                    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
                    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
                    cs.append(z ^ (z >> 31))
                    cd.append(d)
        if not cs:
            return _NO_CHILDREN
        return np.array(cs, dtype=np.uint64), np.array(cd, dtype=np.int32)
    child_depths = depths[fertile].repeat(len(salts))
    child_depths += 1
    return children, child_depths


__all__ = ["UTSParams", "root_frontier", "child_counts", "expand"]
