"""The scalar reference explorer: the B&B engine's DFS with one scalar
``LowerBound.frame`` per expanded node and one ``LowerBound.child`` per
enumerated child, the bound walking the published unscheduled mask.

``BnBEngine`` bounds a frame's children with one max-plus table product;
this twin is the oracle it must match bit for bit (same nodes, pause
points, positions, incumbents) — ``tests/test_bnb_kernels.py`` and
``tests/test_bnb_cursor.py`` run both.
"""

from repro.bnb.engine import BnBEngine
from repro.bnb.interval import position_to_digits
from repro.sim.errors import SimConfigError


class _ScalarFrame:
    """One DFS stack level of the scalar explorer."""

    __slots__ = ("front", "remaining", "rank", "frame_data")

    def __init__(self, front, remaining, frame_data):
        self.front = front            # machine completion times of the prefix
        self.remaining = remaining    # unscheduled jobs, ascending
        self.rank = 0                 # next child index to enumerate
        self.frame_data = frame_data  # bound's per-frame data


class ScalarBnBEngine(BnBEngine):
    """``BnBEngine`` with the scalar ``frame``/``child`` enumeration."""

    def __init__(self, instance, bound="lb1"):
        super().__init__(instance, bound)
        self._p = [list(row) for row in instance.p]

    def decompose_block(self, a, shared, width):
        n, m = self.n, self.m
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
        front = [0] * m
        prefix = []
        for q in range(d):
            job = remaining.pop(digits[q])
            prefix.append(job)
            front = self.instance.advance(front, job)
        ub = shared.value
        improved = False
        nodes = 0
        out = []
        child_width = self.fact[n - d - 1]
        bound = self.bound
        mask = [j in remaining for j in range(n)]
        bound.set_mask(mask)
        fd = bound.frame(remaining)
        rem_sum = [sum(self._p[i][j] for j in remaining) for i in range(m)]
        for rank, j in enumerate(remaining):
            nf = self.instance.advance(front, j)
            nodes += 1
            start = a + rank * child_width
            if len(remaining) == 1:
                if nf[-1] < ub:
                    ub = nf[-1]
                    shared.update(ub, tuple(prefix) + (j,))
                    improved = True
                continue
            mask[j] = False
            rs = [rem_sum[i] - self._p[i][j] for i in range(m)]
            lb = bound.child(nf, j, fd, rs)
            mask[j] = True
            if lb < ub:
                out.append((start, start + child_width))
        return out, nodes, improved

    def _explore_interval(self, work, head, shared, budget):
        m = self.m
        p = self._p
        fact = self.fact
        bound = self.bound
        a, b = head
        cur = work.cursor
        if cur is not None and cur[0] is head and cur[1] == a:
            _, _, frames, path_jobs, unscheduled, rem_sum = cur
            bound.set_mask(unscheduled)  # one bound serves every worker
            self.resumes += 1
        else:
            frames, path_jobs, unscheduled, rem_sum = self._rebuild(a)
            self.rebuilds += 1

        pos = a
        nodes = 0
        improved = False
        ub = shared.value
        pause_ok = True

        while frames and pos < b:
            if pause_ok and nodes >= budget:
                break
            fr = frames[-1]
            rem = fr.remaining
            k = len(rem)
            rank = fr.rank
            if rank >= k:
                # node exhausted: restore the job that created it
                frames.pop()
                if path_jobs:
                    j = path_jobs.pop()
                    unscheduled[j] = True
                    for i in range(m):
                        rem_sum[i] += p[i][j]
                continue
            j = rem[rank]
            fr.rank = rank + 1
            nodes += 1
            cfront = fr.front
            nf = [0] * m
            prev = 0
            for i in range(m):
                fi = cfront[i]
                if prev < fi:
                    prev = fi
                prev += p[i][j]
                nf[i] = prev
            if k == 1:
                # complete permutation
                pos += 1
                pause_ok = True
                if prev < ub:
                    ub = int(prev)
                    shared.update(ub, tuple(path_jobs) + (j,))
                    improved = True
                continue
            unscheduled[j] = False
            for i in range(m):
                rem_sum[i] -= p[i][j]
            lb = bound.child(nf, j, fr.frame_data, rem_sum)
            if lb < ub:
                child_rem = rem[:rank] + rem[rank + 1:]
                path_jobs.append(j)
                frames.append(_ScalarFrame(nf, child_rem,
                                           bound.frame(child_rem)))
                pause_ok = False
            else:
                # prune: skip the child's whole leaf block
                pos += fact[k - 1]
                pause_ok = True
                unscheduled[j] = True
                for i in range(m):
                    rem_sum[i] += p[i][j]
        if not frames:
            pos = b
        work.cursor = ((head, pos, frames, path_jobs, unscheduled, rem_sum)
                       if pos < b else None)
        return nodes, pos, improved

    def _rebuild(self, a):
        n, p = self.n, self._p
        bound = self.bound
        unscheduled = [True] * n
        rem_sum = [sum(row) for row in p]
        bound.set_mask(unscheduled)
        digits = position_to_digits(a, n)
        deepest = -1
        for d in range(n):
            if digits[d]:
                deepest = d
        remaining = list(range(n))
        front = [0] * self.m
        frames = []
        path_jobs = []
        for d in range(max(0, deepest) + 1):
            fresh = d == deepest or deepest < 0
            fr = _ScalarFrame(front, remaining, bound.frame(remaining))
            fr.rank = digits[d] if fresh else digits[d] + 1
            frames.append(fr)
            if fresh:
                break
            job = remaining[digits[d]]
            path_jobs.append(job)
            unscheduled[job] = False
            for i in range(self.m):
                rem_sum[i] -= p[i][job]
            front = self.instance.advance(front, job)
            remaining = remaining[:digits[d]] + remaining[digits[d] + 1:]
        return frames, path_jobs, unscheduled, rem_sum


def make_engine(instance, bound="lb1", batch=True):
    """The table engine (``batch=True``) or its scalar oracle twin."""
    return (BnBEngine if batch else ScalarBnBEngine)(instance, bound)
