"""B&B work as a set of disjoint leaf-position intervals (Mezmaz et al.).

"we simply consider that the amount of work, which a node is processing,
corresponds to the length of the interval" (paper §III-B) — with the
caveat, also from the paper, that length is *not* effort: B&B may prune a
huge interval instantly. The protocols balance length; execution time
emerges from what the search actually does.

Processing consumes the *head* interval left to right (depth-first order);
stealing takes positions from the *tail* (the region the owner would reach
last), so a transfer never splits the owner's in-progress region.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ..sim.errors import SimConfigError
from ..work.base import WorkItem
from .interval import factorials, tree_leaves

#: Wire bytes per interval: two 64-bit-ish positions. (20! needs 62 bits.)
INTERVAL_BYTES = 16


def _aligned_cut(a: int, b: int, give: int, n_jobs: int) -> int:
    """Cut point for taking ~``give`` tail positions of [a, b).

    Snapped *up* to the coarsest subtree-block boundary not exceeding the
    requested share. An aligned cut means the two sides partition the B&B
    node set cleanly (no straddling DFS path whose children both sides must
    re-bound), so work transfers stay free of duplicated exploration — at
    paper scale the straddling cost is noise, at simulation scale it would
    systematically punish whichever protocol balances most.
    """
    raw = b - give
    width = 1
    for f in factorials(n_jobs):
        if f <= give:
            width = f
        else:
            break
    cut = ((raw + width - 1) // width) * width
    if cut <= a or cut >= b:
        return raw  # degenerate geometry: fall back to the exact cut
    return cut


class BnBWork(WorkItem):
    """Splittable set of disjoint, ordered intervals of [0, n_jobs!)."""

    __slots__ = ("n_jobs", "intervals", "cursor")
    wire_tag = "__bnb"

    def __init__(self, n_jobs: int,
                 intervals: Iterable[tuple[int, int]] = ()) -> None:
        if n_jobs < 1:
            raise SimConfigError("n_jobs must be >= 1")
        self.n_jobs = n_jobs
        self.intervals: deque[list[int]] = deque()
        # The engine's paused DFS state for the head interval, or None: a
        # cache the engine validates against the head on every call, so
        # nothing here has to invalidate it.
        self.cursor: Optional[tuple] = None
        limit = tree_leaves(n_jobs)
        last_end = -1
        for a, b in intervals:
            if not (0 <= a < b <= limit):
                raise SimConfigError(f"bad interval [{a}, {b}) for "
                                     f"n_jobs={n_jobs}")
            if a < last_end:
                raise SimConfigError("intervals must be ordered and disjoint")
            last_end = b
            self.intervals.append([a, b])

    # -- construction -----------------------------------------------------------

    @classmethod
    def full_tree(cls, n_jobs: int) -> "BnBWork":
        """The whole search: [0, n_jobs!)."""
        return cls(n_jobs, [(0, tree_leaves(n_jobs))])

    @classmethod
    def empty(cls, n_jobs: int) -> "BnBWork":
        """An empty work container for the same tree."""
        return cls(n_jobs)

    # -- WorkItem interface --------------------------------------------------------

    def amount(self) -> int:
        return sum(b - a for a, b in self.intervals)

    def is_empty(self) -> bool:
        # amount() <= 0 without the sum: intervals never run backwards, so
        # the pool is empty iff no interval has a position left
        for a, b in self.intervals:
            if b > a:
                return False
        return True

    def split(self, fraction: float) -> Optional["BnBWork"]:
        total = self.amount()
        give = int(total * fraction)
        give = min(give, total - 1)  # keep at least one position
        if give <= 0:
            return None
        taken: list[tuple[int, int]] = []
        while give > 0 and self.intervals:
            a, b = self.intervals[-1]
            length = b - a
            if length <= give:
                # whole intervals create no new cut boundary
                taken.append((a, b))
                self.intervals.pop()
                give -= length
            else:
                cut = _aligned_cut(a, b, give, self.n_jobs)
                if cut < b:
                    taken.append((cut, b))
                    self.intervals[-1][1] = cut
                give = 0
        if not taken:
            return None
        taken.reverse()  # restore ascending order
        piece = BnBWork(self.n_jobs)
        piece.intervals.extend([list(t) for t in taken])
        return piece

    def merge(self, other: WorkItem) -> None:
        if not isinstance(other, BnBWork) or other.n_jobs != self.n_jobs:
            raise SimConfigError("cannot merge incompatible B&B work")
        self.intervals.extend(other.intervals)
        other.intervals = deque()

    def encoded_bytes(self) -> int:
        return INTERVAL_BYTES * len(self.intervals)

    # -- processing hooks (used by the engine) ----------------------------------------

    def head(self) -> Optional[list[int]]:
        """The interval currently being explored (mutable [a, b])."""
        return self.intervals[0] if self.intervals else None

    def pop_head(self) -> None:
        """Drop the (exhausted) head interval."""
        self.intervals.popleft()

    def __reduce__(self) -> tuple:
        # the cursor never travels
        return (_restore, (self.n_jobs, list(self.intervals)))

    def as_tuples(self) -> list[tuple[int, int]]:
        """Immutable snapshot of the interval set (tests/reports)."""
        return [(a, b) for a, b in self.intervals]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BnBWork(n_jobs={self.n_jobs}, "
                f"{len(self.intervals)} intervals, amount={self.amount()})")


def _restore(n_jobs: int, intervals: list[list[int]]) -> BnBWork:
    """Unpickle B&B work as it was. ``BnBWork.merge`` appends what it
    receives, so a pool that absorbed a transfer is legitimately not
    ascending, and the validating constructor would refuse it."""
    work = BnBWork(n_jobs)
    work.intervals.extend(intervals)
    return work


__all__ = ["BnBWork", "INTERVAL_BYTES"]
