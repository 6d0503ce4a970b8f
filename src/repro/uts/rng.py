"""Splittable per-node randomness for UTS.

The original UTS benchmark derives each tree node's state by hashing its
parent's state with its child index through SHA-1 (the "BRG" generator).
What the benchmark actually requires of the generator is:

* determinism — the tree is a pure function of the root seed,
* splittability — any node's subtree can be regenerated from its state
  alone, wherever it was shipped,
* independence — child-count decisions look i.i.d. uniform.

We substitute SplitMix64 mixing (DESIGN.md §2): it satisfies all three and
vectorises over NumPy ``uint64`` arrays, which makes million-node trees
tractable from Python (hashlib SHA-1 costs ~1 microsecond per node; this
costs nanoseconds).

The functions here are the **reference**: ``decide_unit`` and
``child_states`` compose into ``tree.child_counts`` and the sequential
oracle ``count_tree``, and serve the ``geo`` and ``sha1`` instances. The
**hot path** of a protocol run is the fused kernel in ``tree.expand``,
which shares this module's constants and is tested against it.
"""

from __future__ import annotations

import numpy as np

from ..sim.rng import _GOLDEN, _MIX1, _MIX2, mix64

#: Salt separating "how many children do I have" draws from state chains.
DECIDE_SALT = np.uint64(0xD6E8FEB86659FD93)
#: Salt folded with the child index when deriving child states.
CHILD_SALT = np.uint64(0xA24BAED4963EE407)

_U53 = float(1 << 53)
_M64 = 0xFFFFFFFFFFFFFFFF
_DECIDE_INT = int(DECIDE_SALT)
_CHILD_INT = int(CHILD_SALT)
_GOLDEN_INT, _MIX1_INT, _MIX2_INT = int(_GOLDEN), int(_MIX1), int(_MIX2)

#: Batches at or below this size take the pure-Python path: NumPy's
#: per-call overhead dwarfs the work.
SMALL_BATCH = 14
#: Batches above ``SMALL_BATCH`` and at or below this size mix the decision
#: word and the ``m`` child words in one ``(n, 1+m)`` pass; larger ones mix
#: the decision words, then only the fertile rows' child words.
ONEPASS_MAX = 256

# The fused kernel's three paths (``tree._expand_bin``) by batch size n,
# in us per batch: bin q=0.47 m=2, best of 9 rounds over 64 random
# batches, Python 3.11 / NumPy 2.4 on a 2-core x86_64 box.
#
#     n            10    14    15    16    64   256   320  2048
#     Python ints 13.8  19.1  18.7  20.8  73.8
#     one pass    13.0  11.9  11.9  12.2  13.1  22.0  24.5  94.5
#     two passes  18.0  17.8  16.3  16.5  17.7  22.9  23.9  67.5
#
# One pass wins from ~10 to ~300 nodes: it halves the array calls and
# pays with the child words of leaves, which grow with n. Against it the
# ints path crosses over near 10, not 14; batches of 11-14 are ~6 % of
# ``sim_uts_td``'s expands, so ``SMALL_BATCH`` (which the reference
# functions below share) stays 14.


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on plain Python ints (scalar fast path)."""
    z = (z + _GOLDEN_INT) & _M64
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
    return z ^ (z >> 31)


def root_state(seed: int) -> np.uint64:
    """State of the tree root for an integer instance seed ``r``."""
    return mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))


def decide_unit(states: np.ndarray) -> np.ndarray:
    """Uniform(0,1) draw per node, from its state (vectorised)."""
    if len(states) <= SMALL_BATCH:
        return np.array([(_mix64_int(int(s) ^ _DECIDE_INT) >> 11) / _U53
                         for s in states], dtype=np.float64)
    z = mix64(states ^ DECIDE_SALT)
    return (z >> np.uint64(11)).astype(np.float64) / _U53


def child_states(states: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """States of all children, concatenated in parent-then-index order.

    ``counts[i]`` children are derived for ``states[i]``; child ``j`` of a
    parent with state ``s`` is ``mix64(s XOR (j+1)*CHILD_SALT)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64)
    if total <= SMALL_BATCH:
        out = []
        for s, c in zip(states, counts):
            s = int(s)
            for j in range(int(c)):
                out.append(_mix64_int(s ^ (((j + 1) * _CHILD_INT) & _M64)))
        return np.array(out, dtype=np.uint64)
    parents = np.repeat(states, counts)
    ends = np.cumsum(counts)
    # index of each child within its own family: 0..counts[i]-1
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    with np.errstate(over="ignore"):
        salt = (within.astype(np.uint64) + np.uint64(1)) * CHILD_SALT
        return mix64(parents ^ salt)


def nth_child(state: np.uint64, index: int) -> np.uint64:
    """Scalar convenience: state of one child (tests / tiny trees)."""
    with np.errstate(over="ignore"):
        return mix64(state ^ (np.uint64(index + 1) * CHILD_SALT))


# -- SHA-1 mixing mode --------------------------------------------------------
#
# The original UTS derives child states with SHA-1 (the BRG generator).
# This mode mixes the same 64-bit node words through SHA-1 instead of
# SplitMix64: child j of state s is the first 8 bytes of
# SHA1(s || j), and the branching draw comes from SHA1(s || "d").
# It exists to demonstrate that the benchmark's statistics (and every
# result in this repository) do not depend on the mixer — see the
# equivalence tests — at ~20x the cost of the vectorised default.

def sha1_root_state(seed: int) -> np.uint64:
    import hashlib
    digest = hashlib.sha1(int(seed).to_bytes(8, "big")).digest()
    return np.uint64(int.from_bytes(digest[:8], "big"))


def sha1_decide_unit(states: np.ndarray) -> np.ndarray:
    import hashlib
    out = np.empty(len(states), dtype=np.float64)
    for i, s in enumerate(states):
        digest = hashlib.sha1(int(s).to_bytes(8, "big") + b"d").digest()
        out[i] = (int.from_bytes(digest[:8], "big") >> 11) / _U53
    return out


def sha1_child_states(states: np.ndarray, counts: np.ndarray) -> np.ndarray:
    import hashlib
    out = []
    for s, c in zip(states, counts):
        base = int(s).to_bytes(8, "big")
        for j in range(int(c)):
            digest = hashlib.sha1(base + int(j).to_bytes(4, "big")).digest()
            out.append(int.from_bytes(digest[:8], "big"))
    return np.array(out, dtype=np.uint64)


__all__ = ["root_state", "decide_unit", "child_states", "nth_child",
           "DECIDE_SALT", "CHILD_SALT", "sha1_root_state",
           "sha1_decide_unit", "sha1_child_states"]
