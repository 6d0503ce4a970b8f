"""Deterministic random-number streams for simulated processes.

Every stochastic decision in a run draws from a stream derived from
``(global_seed, *path)`` through SplitMix64 mixing, so

* two runs with the same seed are bit-identical regardless of the order in
  which processes are created or scheduled, and
* streams for different processes / purposes are statistically independent
  (SplitMix64 is the standard seeding mixer of the JDK and of NumPy's
  ``SeedSequence``-era literature).

The module also exposes the raw :func:`splitmix64` / :func:`mix64` helpers
that the UTS splittable RNG builds on (vectorised over NumPy ``uint64``).
"""

from __future__ import annotations

import random

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.

    Accepts a scalar ``uint64`` or any ``uint64`` array; fully vectorised.
    """
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
        return z ^ (z >> np.uint64(31))


def splitmix64(seed: int, n: int) -> np.ndarray:
    """Return ``n`` successive SplitMix64 outputs for an integer ``seed``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        idx = base + (np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN)
    # mix64 already adds _GOLDEN once more; that constant offset is harmless.
    return mix64(idx & _MASK)


def derive_seed(global_seed: int, *path: int | str) -> int:
    """Derive a 63-bit child seed from a global seed and a label path.

    String labels are folded with a stable (non-salted) FNV-1a so that seeds
    do not depend on ``PYTHONHASHSEED``.
    """
    acc = np.uint64(global_seed & 0xFFFFFFFFFFFFFFFF)
    for part in path:
        if isinstance(part, str):
            h = np.uint64(0xCBF29CE484222325)
            with np.errstate(over="ignore"):
                for ch in part.encode("utf-8"):
                    h = ((h ^ np.uint64(ch)) * np.uint64(0x100000001B3)) & _MASK
            word = h
        else:
            word = np.uint64(int(part) & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            acc = mix64((acc ^ word) & _MASK)
    return int(acc) & 0x7FFFFFFFFFFFFFFF


class RngStream:
    """A named deterministic stream backed by :class:`random.Random`.

    ``random.Random`` (Mersenne Twister) is plenty for protocol decisions
    (victim choice, tie-breaking); the heavy-duty vectorised randomness in
    UTS uses :func:`mix64` directly.

    The generator is seeded on the first draw, not at construction: the
    same stream either way, but a stream nobody draws from (an overlay
    leaf's probe picker) holds no 2.5 KB of Twister state. At n = 1000
    that is up to 2.5 MB of a running cell; a finished one is freed
    whole when its caller drops it.
    """

    __slots__ = ("seed", "_mt")

    def __init__(self, global_seed: int, *path: int | str) -> None:
        self.seed = derive_seed(global_seed, *path)
        self._mt: random.Random | None = None

    @property
    def _rng(self) -> random.Random:
        mt = self._mt
        if mt is None:
            mt = self._mt = random.Random(self.seed)
        return mt

    def random(self) -> float:
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in the inclusive range [a, b]."""
        return self._rng.randint(a, b)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def choice(self, seq):
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq, k: int):
        return self._rng.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)


def spawn_numpy(global_seed: int, *path: int | str) -> np.random.Generator:
    """A NumPy generator on the same deterministic derivation scheme."""
    return np.random.default_rng(derive_seed(global_seed, *path))
