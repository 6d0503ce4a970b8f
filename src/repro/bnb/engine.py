"""The interval-based depth-first B&B explorer.

One engine instance is shared by all simulated workers of a run (it is
stateless between calls apart from the immutable instance/bound): a worker
hands it its :class:`~repro.bnb.work.BnBWork` and its
:class:`~repro.bnb.state.BoundState` and a node budget; the engine explores
depth-first from the head interval's left edge, advancing the interval's
``a`` as it goes.

Because a position fully encodes the DFS state (everything left of ``a`` is
done, everything right is pending), work can be split, shipped and picked
up anywhere at the cost of one O(n²) path rebuild from the factoradic
digits of ``a`` — the property that makes the Mezmaz-style encoding so
cheap to balance. A quantum that merely pauses pays nothing: the stack
stays on the work as ``BnBWork.cursor`` and the next call continues from
it, provided the head is still the same list object with the same ``a``
(``b`` is re-read, so tail steals keep it valid); anything else — a new
head, merged or decoded work, a master editing intervals — fails that
check and takes the rebuild. The cursor is a cache of what the position
already says, so it never travels.

Child enumeration is one max-plus product per frame: when a frame's first
child is enumerated, the bounds of *all* its children come from the
bound's per-subset table (``LowerBound.table``, :mod:`repro.bnb.kernels`)
applied to the frame's front, one NumPy add and row-max. The subset is
tracked as a bitmask, which the DFS revisits constantly, so the table is
built once per subset. Fronts are plain lists of ints: an entered child's
front, a leaf's makespan and a rebuilt path all come from one flow-shop
recurrence (``_advance``, inlined in the DFS loop). The scalar ``frame``/``child`` explorer is a test
oracle; the table is integer-exact against it (golden-tested in
``tests/test_bnb_kernels.py``).

Node accounting: one unit per lower-bound evaluation or complete
permutation evaluated. This is the quantity the simulation prices with
``unit_cost`` and the quantity reported as "explored nodes". A frame may
*compute* bounds for children the budget never reaches; only enumerated
children are counted, keeping counts independent of the table and of the
quantum size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.errors import SimConfigError
from .bounds import LowerBound, get_bound
from .flowshop import FlowshopInstance
from .interval import factorials, position_to_digits
from .kernels import child_bounds
from .state import INF, BoundState
from .work import BnBWork


@dataclass(slots=True)
class ExploreResult:
    """Outcome of one engine call."""

    nodes: int          # bound evaluations + leaves visited
    improved: bool      # whether shared.value improved during the call
    exhausted: bool     # True when the given work is now empty


class _Frame:
    """One DFS stack level: the node whose children are being enumerated."""

    __slots__ = ("front", "remaining", "rank", "key", "lbs")

    def __init__(self, front, remaining, key):
        self.front = front            # machine completion times of the prefix
        self.remaining = remaining    # unscheduled jobs, ascending
        self.rank = 0                 # next child index to enumerate
        self.key = key                # bitmask of remaining
        self.lbs = None               # child bounds (lazy, first enumeration)


def _advance(front, times):
    """The completion front after appending a job with per-machine
    ``times`` to a prefix whose completion front is ``front``."""
    out = []
    prev = 0
    for fi, t in zip(front, times):
        if prev < fi:
            prev = fi
        prev += t
        out.append(prev)
    return out


class BnBEngine:
    """Explorer bound to one instance + lower bound (see module docstring)."""

    def __init__(self, instance: FlowshopInstance,
                 bound: LowerBound | str = "lb1") -> None:
        self.instance = instance
        self.bound = get_bound(bound) if isinstance(bound, str) else bound
        self.bound.attach(instance)
        self.n = instance.n_jobs
        self.m = instance.n_machines
        self.fact = factorials(self.n)
        self._pT = list(zip(*instance.p))   # _pT[j][i]: job j on machine i
        self.rebuilds = 0   # head intervals cold-started from their digits
        self.resumes = 0    # head intervals continued from a paused cursor

    # -- public API ----------------------------------------------------------

    def explore(self, work: BnBWork, shared: BoundState,
                max_nodes: int) -> ExploreResult:
        """Explore up to ``max_nodes`` nodes of ``work``; mutates both."""
        if work.n_jobs != self.n:
            raise SimConfigError("work does not match this engine's instance")
        total = 0
        improved = False
        while total < max_nodes:
            head = work.head()
            if head is None:
                break
            nodes, pos, imp = self._explore_interval(
                work, head, shared, max_nodes - total)
            total += nodes
            improved = improved or imp
            if pos >= head[1]:
                work.pop_head()
            else:
                head[0] = pos
        return ExploreResult(nodes=total, improved=improved,
                             exhausted=work.head() is None)

    def solve(self, shared: BoundState | None = None,
              quantum: int = 100_000,
              max_nodes: int | None = None) -> tuple[int, tuple[int, ...], int]:
        """Sequential B&B over the whole tree.

        Returns (optimal makespan, an optimal permutation, explored nodes).
        ``max_nodes`` guards against accidentally running an instance far
        larger than intended.
        """
        shared = shared if shared is not None else BoundState()
        work = BnBWork.full_tree(self.n)
        nodes = 0
        while not work.is_empty():
            res = self.explore(work, shared, quantum)
            nodes += res.nodes
            if max_nodes is not None and nodes > max_nodes:
                raise SimConfigError(
                    f"B&B exceeded max_nodes={max_nodes:,} on "
                    f"{self.instance.name}")
        if shared.perm is None:
            raise SimConfigError("search ended with no incumbent (bug)")
        return shared.value, shared.perm, nodes

    def decompose_block(self, a: int, shared: BoundState,
                        width: int) -> tuple[list[tuple[int, int]], int, bool]:
        """Expand the block [a, a+width) one level: bound each child.

        Used by hierarchical master schemes (AHMW): the children of the
        block's prefix node are bounded; surviving children come back as
        their own (width/(n-d)) blocks, pruned ones are dropped. Returns
        (surviving child blocks, bound evaluations performed, ub improved).
        A width of 1 matches 0! and is rejected, so a valid width is at
        least 2!: the children are never leaves, and the incumbent never
        improves here.

        ``a`` must be aligned: width == (n-d)! for the prefix depth d and
        ``a % width == 0`` within its parent block.
        """
        n = self.n
        d = None
        for k in range(n + 1):
            if self.fact[k] == width:
                d = n - k
                break
        if d is None or not (0 <= d < n):
            raise SimConfigError(f"width {width} is not a valid block size")
        digits = position_to_digits(a, n)
        if any(digits[q] for q in range(d, n)):
            raise SimConfigError(f"block start {a} is not aligned to {width}")
        remaining = list(range(n))
        front = [0] * self.m
        key = (1 << n) - 1
        for q in range(d):
            job = remaining.pop(digits[q])
            key &= ~(1 << job)
            front = _advance(front, self._pT[job])
        ub = shared.value
        child_width = self.fact[n - d - 1]
        lbs = child_bounds(self.bound.table(key, remaining), front)
        out = [(a + rank * child_width, a + (rank + 1) * child_width)
               for rank, lb in enumerate(lbs) if lb < ub]
        return out, len(lbs), False

    # -- the DFS ------------------------------------------------------------------

    def _explore_interval(self, work: BnBWork, head: list[int],
                          shared: BoundState,
                          budget: int) -> tuple[int, int, bool]:
        """DFS over the head's leaves [a, b); returns (nodes, new position,
        improved). Continues from ``work.cursor`` when that is the state
        this head was paused in, else rebuilds the stack from ``a``."""
        pT = self._pT
        fact = self.fact
        table = self.bound.table
        a, b = head
        cur = work.cursor
        if cur is not None and cur[0] is head and cur[1] == a:
            # same interval object, untouched left edge: the paused stack is
            # exactly the DFS state at `a` (b is re-read: tail steals only
            # shrink it). Child bounds cached in the frames do not depend on
            # the incumbent, so they survive any ub change in between.
            _, _, frames, path_jobs = cur
            self.resumes += 1
        else:
            frames, path_jobs = self._rebuild(a)
            self.rebuilds += 1

        pos = a
        nodes = 0
        improved = False
        ub = shared.value
        # Pause only right after the position advanced (leaf or prune): at
        # such moments every live frame has enumerated at least one child, so
        # a later rebuild never re-bounds an already-counted node and the
        # explored-node count is independent of the quantum size.
        pause_ok = True

        while frames and pos < b:
            if pause_ok and nodes >= budget:
                break
            fr = frames[-1]
            rem = fr.remaining
            k = len(rem)
            rank = fr.rank
            if rank >= k:
                # node exhausted: drop the job that created it
                frames.pop()
                if path_jobs:
                    path_jobs.pop()
                continue
            if k > 1:
                lbs = fr.lbs
                if lbs is None:
                    # first enumeration of this frame: bound all children
                    # with one product against the subset's table
                    lbs = fr.lbs = child_bounds(table(fr.key, rem), fr.front)
                if lbs[rank] >= ub:
                    # a run of pruned siblings, each skipping its whole leaf
                    # block; every prune is a pause point (budget, pos < b)
                    block = fact[k - 1]
                    while True:
                        rank += 1
                        nodes += 1
                        pos += block
                        if (rank >= k or lbs[rank] < ub or nodes >= budget
                                or pos >= b):
                            break
                    fr.rank = rank
                    pause_ok = True
                    continue
            j = rem[rank]
            fr.rank = rank + 1
            nodes += 1
            # the child's front (_advance, inlined): the leaf's makespan, or
            # the entered child's frame
            nf = []
            prev = 0
            for fi, t in zip(fr.front, pT[j]):
                if prev < fi:
                    prev = fi
                prev += t
                nf.append(prev)
            if k == 1:
                # complete permutation
                pos += 1
                pause_ok = True
                if prev < ub:
                    ub = prev
                    shared.update(ub, tuple(path_jobs) + (j,))
                    improved = True
                continue
            path_jobs.append(j)
            frames.append(_Frame(nf, rem[:rank] + rem[rank + 1:],
                                 fr.key & ~(1 << j)))
            pause_ok = False
        if not frames:
            pos = b  # finished everything we were given
        # paused mid-interval: park the stack for the next call
        work.cursor = (head, pos, frames, path_jobs) if pos < b else None
        return nodes, pos, improved

    def _rebuild(self, a: int) -> tuple[list[_Frame], list[int]]:
        """Cold start: the DFS stack from the factoradic digits of ``a``.

        Let D be the deepest level whose digit is non-zero. For every level
        d < D the digit-child is *partially explored* (the leaf `a` lies
        strictly inside its block): push its frame with rank digit+1 — the
        deeper frames embody the in-progress child. At level D itself (and
        below) `a` coincides with block starts: those children are entirely
        fresh and must be enumerated (and bounded!) by the normal DFS, so
        the rebuild stops there with rank = digit. Path nodes are rebuilt
        without bound evaluations and without counting: they were counted
        when first entered, wherever that happened; their child bounds are
        computed on first enumeration.
        """
        n = self.n
        digits = position_to_digits(a, n)
        deepest = -1
        for d in range(n):
            if digits[d]:
                deepest = d
        remaining = list(range(n))
        front = [0] * self.m
        key = (1 << n) - 1
        frames: list[_Frame] = []
        path_jobs: list[int] = []
        for d in range(max(0, deepest) + 1):
            fresh = d == deepest or deepest < 0
            fr = _Frame(front, remaining, key)
            fr.rank = digits[d] if fresh else digits[d] + 1
            frames.append(fr)
            if fresh:
                break
            job = remaining[digits[d]]
            path_jobs.append(job)
            key &= ~(1 << job)
            front = _advance(front, self._pT[job])
            remaining = remaining[:digits[d]] + remaining[digits[d] + 1:]
        return frames, path_jobs


def solve_bruteforce(instance: FlowshopInstance) -> tuple[int, tuple[int, ...]]:
    """Exhaustive oracle for tiny instances (tests)."""
    from itertools import permutations
    if instance.n_jobs > 9:
        raise SimConfigError("brute force capped at 9 jobs")
    best, best_perm = INF, None
    for perm in permutations(range(instance.n_jobs)):
        c = instance.makespan(perm)
        if c < best:
            best, best_perm = c, perm
    return best, best_perm


__all__ = ["BnBEngine", "ExploreResult", "solve_bruteforce"]
