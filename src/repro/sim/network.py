"""Network cost model: clusters, latency, bandwidth, handler occupancy.

The model reproduces the *relative* cost structure of the paper's testbed
(two Grid'5000 clusters over InfiniBand-20G):

* intra-cluster latency  ``lat_intra``  (a few tens of microseconds),
* inter-cluster latency  ``lat_inter``  (an order of magnitude higher),
* serialisation time     ``size / bandwidth``,
* a per-message CPU *handler cost* charged to the receiving process
  (:class:`repro.core.worker.Worker` uses it). Handler occupancy is what
  saturates a master that 1000 workers hammer with fine-grain requests —
  the effect behind the paper's Fig. 4.

Process placement mirrors the paper's setup: peers are thrown at random on
reserved cores; runs with fewer than ``c2_threshold`` peers use cluster C1
only, larger runs spill onto C2 (paper §IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SimConfigError
from .rng import RngStream, derive_seed

#: Maps a 63-bit ``derive_seed`` value onto [0, 1).
_INV_2_63 = 2.0 ** -63


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """A named homogeneous cluster with a core budget."""

    name: str
    cores: int

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise SimConfigError(f"cluster {self.name!r} must have cores > 0")


@dataclass(slots=True)
class NetworkModel:
    """Pairwise message cost model over a set of clusters.

    Args:
        clusters: ordered cluster list; placement fills them in order.
        lat_intra: one-way latency between two processes of one cluster (s).
        lat_inter: one-way latency across clusters (s).
        bandwidth: link bandwidth in bytes/second.
        handler_cost: CPU time the receiver spends absorbing one message (s).
        jitter: if > 0, each delivery adds Exp(1/ (jitter*latency)) noise —
            used by the failure-injection tests to reorder messages. Draws
            are keyed on (src, per-source send index) rather than taken
            from one sequential stream, so a delivery's noise is a pure
            function of who sent it and how many jittered sends that
            source made before — independent of the global interleaving
            of *other* senders. Sharded runs rely on this: each shard
            reproduces exactly the draws of its own sources.
        c2_threshold: runs needing at least this many processes also use the
            second cluster (paper: 800).
    """

    clusters: tuple[ClusterSpec, ...]
    lat_intra: float = 5.0e-5
    lat_inter: float = 5.0e-4
    bandwidth: float = 2.0e9
    handler_cost: float = 1.0e-5
    jitter: float = 0.0
    c2_threshold: int = 800
    #: pid -> cluster index, built by :meth:`place`; the pricing table
    #: :meth:`delivery_delay` indexes directly
    _cluster: list[int] = field(default_factory=list, repr=False)
    _jitter_base: int | None = field(default=None, repr=False)
    _jitter_counts: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise SimConfigError("need at least one cluster")
        if self.lat_intra < 0 or self.lat_inter < 0:
            raise SimConfigError("latencies must be >= 0")
        if self.bandwidth <= 0:
            raise SimConfigError("bandwidth must be > 0")
        if self.handler_cost < 0:
            raise SimConfigError("handler_cost must be >= 0")

    # -- placement ---------------------------------------------------------

    def place(self, n_processes: int, seed: int = 0) -> None:
        """Assign ``n_processes`` to clusters with seeded random placement.

        Small runs (< ``c2_threshold``) stay on the first cluster when it has
        capacity, mirroring the paper's reservation policy; larger runs
        scatter over all clusters proportionally to their core counts.
        """
        if n_processes <= 0:
            raise SimConfigError("n_processes must be > 0")
        total = sum(c.cores for c in self.clusters)
        if n_processes > total:
            raise SimConfigError(
                f"{n_processes} processes exceed the {total} cores available")
        rng = RngStream(seed, "placement")
        first = self.clusters[0]
        if n_processes < self.c2_threshold and n_processes <= first.cores:
            slots = [0] * n_processes
        else:
            slots = []
            for ci, c in enumerate(self.clusters):
                slots.extend([ci] * c.cores)
            rng.shuffle(slots)
            slots = slots[:n_processes]
        self._cluster = slots
        # reset (not merely re-key) the jitter state so re-placing the
        # same model — e.g. one NetworkModel reused across grid cells —
        # reproduces the exact delay sequence of a fresh model
        self._jitter_base = (derive_seed(seed, "net-jitter")
                             if self.jitter > 0 else None)
        self._jitter_counts = {}

    def cluster_of(self, pid: int) -> int:
        """Cluster index a process was placed on (:func:`place` first)."""
        if 0 <= pid < len(self._cluster):
            return self._cluster[pid]
        raise SimConfigError(f"process {pid} has no placement; call place()")

    # -- pricing -----------------------------------------------------------

    def min_delay(self) -> float:
        """Lower bound on :meth:`delivery_delay` between two *distinct*
        processes.

        Jitter and serialisation only ever add to the base latency, so the
        smaller of the two latency classes bounds every cross-process
        delivery from below. The macro-event fast path
        (:mod:`repro.core.worker`) uses this as a network lookahead: an
        event firing at time T cannot make a message *arrive* at another
        process before ``T + min_delay()``. Self-sends (src == dst) have
        zero latency and are excluded — they can only target the sender,
        whose own pending events are tracked separately.
        """
        return min(self.lat_intra, self.lat_inter)

    def latency(self, src: int, dst: int) -> float:
        """One-way latency between two placed processes."""
        if src == dst:
            return 0.0
        same = self.cluster_of(src) == self.cluster_of(dst)
        return self.lat_intra if same else self.lat_inter

    def delivery_delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Total network delay for one message (latency + serialisation).

        :meth:`latency` inline — one read of the cluster table per end
        instead of two calls per message; same operands, same order.
        """
        if src == dst:
            lat = 0.0
        else:
            cluster = self._cluster
            try:
                same = cluster[src] == cluster[dst]
            except IndexError:
                raise SimConfigError(
                    f"process {max(src, dst)} has no placement; "
                    "call place()") from None
            lat = self.lat_intra if same else self.lat_inter
        delay = lat + size_bytes / self.bandwidth
        if self._jitter_base is not None and src != dst:
            k = self._jitter_counts.get(src, 0)
            self._jitter_counts[src] = k + 1
            u = derive_seed(self._jitter_base, src, k) * _INV_2_63
            delay += -math.log(1.0 - u) * (self.jitter * self.lat_intra)
        return delay


def grid5000(handler_cost: float = 1.0e-5, jitter: float = 0.0) -> NetworkModel:
    """The paper's testbed: C1 (92 nodes x 8 cores), C2 (144 nodes x 4 cores).

    736 + 576 = 1312 cores, enough for the 1000-core experiments; runs below
    800 processes stay on C1 as in the paper.
    """
    return NetworkModel(
        clusters=(ClusterSpec("C1", 92 * 8), ClusterSpec("C2", 144 * 4)),
        lat_intra=5.0e-5,
        lat_inter=5.0e-4,
        bandwidth=2.0e9,
        handler_cost=handler_cost,
        jitter=jitter,
        c2_threshold=800,
    )


def uniform_network(cores: int = 4096, latency: float = 5.0e-5,
                    handler_cost: float = 1.0e-5,
                    jitter: float = 0.0) -> NetworkModel:
    """A single flat cluster; convenient for unit tests."""
    return NetworkModel(
        clusters=(ClusterSpec("flat", cores),),
        lat_intra=latency,
        lat_inter=latency,
        handler_cost=handler_cost,
        jitter=jitter,
    )


__all__ = ["ClusterSpec", "NetworkModel", "grid5000", "uniform_network"]
