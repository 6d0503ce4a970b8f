"""Activity tracing: per-process timelines and utilization profiles.

A :class:`Tracer` records (time, pid, kind, value) samples; attach one to a
run with :func:`attach` (or pass ``tracer=`` to
:func:`repro.experiments.runner.run_once`) and get:

* per-process busy/idle interval timelines,
* a bucketed system-utilization profile (the "how busy was the fleet over
  the run" curve used throughout the paper's §IV discussion).

Tracing is off by default — the hooks cost nothing unless a tracer is
attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SimConfigError

#: Sample kinds recorded by the worker framework.
QUANTUM = "quantum"      # value = work units completed at that time
MESSAGE = "message"      # value = 1 (a message was handled)
IDLE = "idle"            # value = idle-episode start marker
FINISH = "finish"        # value = 0 (local termination)
CRASH = "crash"          # value = 0 (this process crash-stopped)
REPAIR = "repair"        # value = the spliced/adopted peer's pid
TRANSFER = "transfer"    # value = src pid of a merged WORK transfer
                         # (pid = the receiver); feeds the steal matrix
CIRCUIT = "circuit"      # value = peer*4 + state (0 closed / 1 open /
                         # 2 half-open); pid = the breaker's owner
PARTITION = "partition"  # value = +(idx+1) at a cut, -(idx+1) at its heal
                         # (idx = the plan's partition window index);
                         # recorded on pid 0's tracer at finalize


@dataclass(slots=True)
class Sample:
    time: float
    pid: int
    kind: str
    value: float


class Tracer:
    """Collects samples; analysis helpers below."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self.enabled = True

    def record(self, time: float, pid: int, kind: str,
               value: float = 0.0) -> None:
        """Append one sample (no-op while disabled)."""
        if self.enabled:
            self.samples.append(Sample(time, pid, kind, value))

    # -- analysis ------------------------------------------------------------

    def of_kind(self, kind: str) -> list[Sample]:
        """All samples of one kind, in time order."""
        return [s for s in self.samples if s.kind == kind]

    def utilization_profile(self, makespan: float, unit_cost: float,
                            n_workers: int,
                            buckets: int = 10) -> list[tuple[float, float]]:
        """(bucket end time, busy fraction) over the run.

        Busy fraction of a bucket = work units completed in it x unit_cost
        / (n_workers x bucket width). Quantum completions are attributed to
        their completion bucket, which smears one quantum width — fine for
        the profile shapes this is used for.
        """
        if makespan <= 0 or buckets < 1 or n_workers < 1:
            raise SimConfigError("need positive makespan/buckets/workers")
        width = makespan / buckets
        acc = [0.0] * buckets
        for s in self.samples:
            if s.kind == QUANTUM:
                b = min(buckets - 1, int(s.time / width))
                acc[b] += s.value * unit_cost
        return [((b + 1) * width, acc[b] / (n_workers * width))
                for b in range(buckets)]

    def work_completed_by(self, fraction_of_units: float,
                          total_units: int) -> Optional[float]:
        """Time by which the given fraction of all work units was done.

        Scans QUANTUM samples in *time* order, not append order: under
        quantum fusion a worker appends the interior samples of a fused
        block eagerly, so another worker's samples at earlier virtual
        times may follow them in the list. (For unfused runs append order
        is already time order and the stable sort is a no-op.)
        """
        if not (0 < fraction_of_units <= 1):
            raise SimConfigError("fraction must be in (0, 1]")
        target = fraction_of_units * total_units
        done = 0.0
        quanta = sorted((s for s in self.samples if s.kind == QUANTUM),
                        key=lambda s: s.time)
        for s in quanta:
            done += s.value
            if done >= target:
                return s.time
        return None



def render_profile(profile: list[tuple[float, float]],
                   label: str = "busy", width: int = 40) -> str:
    """ASCII bar rendering of a utilization profile."""
    lines = [f"{'t (ms)':>10} | {label}"]
    for t, frac in profile:
        bar = "#" * max(0, min(width, round(frac * width)))
        lines.append(f"{t * 1e3:10.2f} | {bar} {frac * 100:.0f}%")
    return "\n".join(lines)


__all__ = ["Tracer", "Sample", "render_profile", "QUANTUM", "MESSAGE",
           "IDLE", "FINISH", "CRASH", "REPAIR", "TRANSFER", "CIRCUIT",
           "PARTITION"]
