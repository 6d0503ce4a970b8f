"""Taillard's flow-shop benchmark generator (Taillard, EJOR 1993).

Implements Taillard's portable linear congruential generator and the
machine-major instance construction, with the published *time seeds* of the
ta021–ta030 family (20 jobs x 20 machines) used by the paper.

The true 20x20 instances take ~24 CPU-hours each to solve exactly, so the
experiment harness uses **scaled instances** obtained by truncating the
20x20 processing-time matrix to its first ``n_jobs`` jobs (DESIGN.md §2):
the matrices are still Taillard-generated numbers, the B&B trees keep the
heavy-pruning irregularity of the problem class, and the full instances
remain constructible through :func:`taillard_instance` for anyone with the
CPU budget.
"""

from __future__ import annotations

from ..sim.errors import SimConfigError
from .flowshop import FlowshopInstance

#: Taillard's LCG constants (portable 32-bit Lehmer generator).
_M = 2147483647
_A = 16807
_B = 127773
_C = 2836

#: Jobs and machines of the ta021..ta030 matrices: no instance here, and
#: so no B&B tree a peer may send, is larger.
TA_SIZE = 20

#: Published time seeds of ta021..ta030 (the 20x20 family, Taillard 1993).
TA_20x20_SEEDS: tuple[int, ...] = (
    479340445, 268827376, 1945283818, 1791839227, 997355831,
    563331215, 1355735245, 1570848242, 903855283, 1595348844,
)


def unif(seed: int, low: int, high: int) -> tuple[int, int]:
    """One draw of Taillard's generator; returns (value, next_seed)."""
    if not (0 < seed < _M):
        raise SimConfigError(f"Taillard seed must be in (0, {_M}), got {seed}")
    k = seed // _B
    seed = _A * (seed % _B) - _C * k
    if seed < 0:
        seed += _M
    value_0_1 = seed / _M
    return low + int(value_0_1 * (high - low + 1)), seed


def processing_times(time_seed: int, n_jobs: int,
                     n_machines: int) -> tuple[tuple[int, ...], ...]:
    """The d[machine][job] matrix, drawn machine-major in U(1, 99)."""
    seed = time_seed
    rows: list[tuple[int, ...]] = []
    for _i in range(n_machines):
        row = []
        for _j in range(n_jobs):
            v, seed = unif(seed, 1, 99)
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def taillard_instance(index: int, n_jobs: int = 20,
                      n_machines: int = 20) -> FlowshopInstance:
    """The full Taillard instance Ta(20+index), index in 1..10 → Ta21..Ta30."""
    if not (1 <= index <= 10):
        raise SimConfigError("index selects Ta21..Ta30: needs 1 <= index <= 10")
    p = processing_times(TA_20x20_SEEDS[index - 1], n_jobs, n_machines)
    return FlowshopInstance(name=f"Ta{20 + index}", p=p)


def scaled_instance(index: int, n_jobs: int = 10,
                    n_machines: int = 20) -> FlowshopInstance:
    """Ta(20+index) truncated to its first ``n_jobs`` x ``n_machines`` block.

    The name carries an ``s`` suffix and the dimensions, e.g. ``Ta21s(10x20)``.
    """
    if not (1 <= index <= 10):
        raise SimConfigError("index selects Ta21s..Ta30s: needs 1 <= index <= 10")
    if not (2 <= n_jobs <= TA_SIZE and 1 <= n_machines <= TA_SIZE):
        raise SimConfigError("scaled instances must fit inside the 20x20 matrix")
    full = processing_times(TA_20x20_SEEDS[index - 1], TA_SIZE, TA_SIZE)
    p = tuple(tuple(row[:n_jobs]) for row in full[:n_machines])
    return FlowshopInstance(name=f"Ta{20 + index}s({n_jobs}x{n_machines})", p=p)


__all__ = ["unif", "processing_times", "taillard_instance", "scaled_instance",
           "TA_20x20_SEEDS", "TA_SIZE"]
