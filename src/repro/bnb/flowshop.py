"""The permutation flow-shop scheduling problem (PFSP).

``n`` jobs traverse ``m`` machines in the same machine order; a solution is
one permutation of the jobs (processed in that order on every machine); the
objective is the makespan — the completion time of the last job on the last
machine. PFSP with m >= 3 is strongly NP-hard; it is the paper's B&B
benchmark (Taillard 20x20 instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..sim.errors import SimConfigError


@dataclass(frozen=True)
class FlowshopInstance:
    """An immutable PFSP instance.

    Attributes:
        name: display name (e.g. ``Ta21`` or ``Ta21s(10x20)``).
        p: processing times, machine-major: ``p[i][j]`` is the time of job
            ``j`` on machine ``i``.
    """

    name: str
    p: tuple[tuple[int, ...], ...]
    tails: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    heads: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.p or not self.p[0]:
            raise SimConfigError("instance needs >= 1 machine and >= 1 job")
        n = len(self.p[0])
        if any(len(row) != n for row in self.p):
            raise SimConfigError("ragged processing-time matrix")
        if any(t <= 0 for row in self.p for t in row):
            raise SimConfigError("processing times must be positive")
        m = len(self.p)
        # tails[i][j]: total work of job j on machines strictly after i
        tails = [[0] * n for _ in range(m)]
        for i in range(m - 2, -1, -1):
            for j in range(n):
                tails[i][j] = tails[i + 1][j] + self.p[i + 1][j]
        # heads[i][j]: total work of job j on machines strictly before i
        heads = [[0] * n for _ in range(m)]
        for i in range(1, m):
            for j in range(n):
                heads[i][j] = heads[i - 1][j] + self.p[i - 1][j]
        object.__setattr__(self, "tails", tuple(tuple(r) for r in tails))
        object.__setattr__(self, "heads", tuple(tuple(r) for r in heads))

    @property
    def n_jobs(self) -> int:
        """Number of jobs (columns of p)."""
        return len(self.p[0])

    @property
    def n_machines(self) -> int:
        """Number of machines (rows of p)."""
        return len(self.p)

    @property
    def total_work(self) -> int:
        """Sum of all processing times (a crude size measure)."""
        return sum(sum(row) for row in self.p)

    def makespan(self, perm: Sequence[int]) -> int:
        """Makespan of a complete permutation (O(n*m) dynamic program)."""
        if sorted(perm) != list(range(self.n_jobs)):
            raise SimConfigError(
                f"{list(perm)} is not a permutation of 0..{self.n_jobs - 1}")
        front = [0] * self.n_machines
        for j in perm:
            front = self.advance(front, j)
        return front[-1]

    def advance(self, front: Sequence[int], job: int) -> list[int]:
        """Machine-completion vector after appending ``job`` to the prefix."""
        out = []
        prev = 0
        for i in range(self.n_machines):
            prev = max(prev, front[i]) + self.p[i][job]
            out.append(prev)
        return out

    def describe(self) -> str:
        return (f"{self.name}: {self.n_jobs} jobs x {self.n_machines} "
                f"machines, total work {self.total_work}")


def make_instance(p: Iterable[Iterable[int]],
                  name: str = "custom") -> FlowshopInstance:
    """Convenience wrapper accepting any nested iterable of times."""
    return FlowshopInstance(name=name, p=tuple(tuple(row) for row in p))


__all__ = ["FlowshopInstance", "make_instance"]
