"""Per-process and run-level statistics.

Counters are cheap plain attributes updated inline by the engine and the
worker framework; aggregation helpers turn them into the quantities the
paper plots (per-node message counts, busy/idle ratios, work units, ...).

Every run, whatever its size, keeps one plain list of
:class:`ProcessStats` rows: the engine binds each process to its row once
and bumps the slots in place, and the live runtime's codec round-trips the
same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class ProcessStats:
    """Counters for one simulated process."""

    pid: int
    msgs_sent: int = 0
    msgs_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    work_units: int = 0           # application work units processed
    busy_time: float = 0.0        # time spent computing work units
    handler_time: float = 0.0     # time spent absorbing messages
    steals_attempted: int = 0     # work requests issued
    steals_successful: int = 0    # requests answered with work
    work_msgs_sent: int = 0       # messages that carried work
    work_msgs_received: int = 0
    finish_time: float = 0.0      # when this process learnt termination
    # fault-injection counters (all stay 0 in clean runs)
    msgs_lost: int = 0            # transmissions dropped by the fault layer
    msgs_duplicated: int = 0      # deliveries duplicated by the fault layer
    retransmits: int = 0          # reliable-channel retransmissions sent
    crashes: int = 0              # 1 when this process crash-stopped
    repairs: int = 0              # overlay splices this node performed
    breaker_opens: int = 0        # circuit breakers this node tripped open
    #: virtual time this process crash-stopped (+inf while alive): its
    #: accountable lifetime ends here, not at the run horizon
    crash_time: float = float("inf")

    def idle_time(self, horizon: float) -> float:
        """Time neither computing nor handling messages, within ``horizon``.

        A crashed process stops accruing idle time at its crash: its
        accountable window is ``min(horizon, crash_time)``, so fault-run
        utilization reports are not skewed by dead nodes "idling" until
        the makespan.
        """
        horizon = min(horizon, self.crash_time)
        return max(0.0, horizon - self.busy_time - self.handler_time)


#: Integer counters of :class:`ProcessStats`, in declaration order.
_INT_FIELDS = ("msgs_sent", "msgs_received", "bytes_sent", "bytes_received",
               "work_units", "steals_attempted", "steals_successful",
               "work_msgs_sent", "work_msgs_received", "msgs_lost",
               "msgs_duplicated", "retransmits", "crashes", "repairs",
               "breaker_opens")
#: Float counters (``crash_time`` initialises to +inf, the rest to 0).
_FLOAT_FIELDS = ("busy_time", "handler_time", "finish_time", "crash_time")


@dataclass(slots=True)
class RunStats:
    """Aggregated statistics of a complete simulation run.

    The ``total_*`` aggregates are O(n) sums over the per-process counters.
    During a run they are computed live; once the engine finalises the run
    it calls :meth:`seal`, which freezes them into one cached tuple — the
    experiment tables read each aggregate several times per row, and n
    reaches 10000 in the scale sweeps.
    """

    n: int
    per_process: list[ProcessStats] = field(default_factory=list)
    makespan: float = 0.0          # time the last process learnt termination
    work_done_time: float = 0.0    # time the last work unit finished
    events_fired: int = 0
    #: macro (fused) engine events the workers executed; 0 when quantum
    #: fusion never engaged (see docs/simulation.md "Scaling")
    macro_events: int = 0
    #: compute quanta covered by those macro events (each macro event fuses
    #: >= 2 quanta, so ``fused_quanta >= 2 * macro_events`` when non-zero)
    fused_quanta: int = 0
    #: (units, msgs, steals, steals_ok, busy) — set by :meth:`seal`
    _aggregates: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def create(cls, n: int) -> "RunStats":
        """Fresh statistics for an n-process run."""
        return cls(n=n, per_process=[ProcessStats(pid=i) for i in range(n)])

    # -- aggregates used by the experiment harness --------------------------

    def seal(self) -> None:
        """Cache the aggregate sums (call once the counters are final)."""
        self._aggregates = (
            sum(p.work_units for p in self.per_process),
            sum(p.msgs_sent for p in self.per_process),
            sum(p.steals_attempted for p in self.per_process),
            sum(p.steals_successful for p in self.per_process),
            sum(p.busy_time for p in self.per_process),
        )

    def fault_totals(self) -> tuple[int, int, int, int, int]:
        """(losses, duplicates, retransmits, crashes, repairs) summed."""
        return (sum(p.msgs_lost for p in self.per_process),
                sum(p.msgs_duplicated for p in self.per_process),
                sum(p.retransmits for p in self.per_process),
                sum(p.crashes for p in self.per_process),
                sum(p.repairs for p in self.per_process))

    def total_breaker_opens(self) -> int:
        """Circuit-breaker trips summed over the fleet (0 in clean runs)."""
        return sum(p.breaker_opens for p in self.per_process)

    def max_finish_time(self, default: float = 0.0) -> float:
        """Latest per-process ``finish_time`` (``default`` when n == 0)."""
        return max((p.finish_time for p in self.per_process),
                   default=default)

    @property
    def events_equivalent(self) -> int:
        """Events the unfused engine would have fired for the same run.

        Each macro event stands in for the quanta it fused, so the
        one-event-per-quantum engine would have fired one event per fused
        quantum where this run fired one per macro event. The scale
        benchmarks report throughput in events-equivalent per second to
        keep fused and unfused runs comparable.
        """
        return self.events_fired + max(0, self.fused_quanta
                                       - self.macro_events)

    @property
    def fused_ratio(self) -> float:
        """Fraction of events-equivalent the fast path absorbed (0..1)."""
        eq = self.events_equivalent
        if eq <= 0:
            return 0.0
        return (self.fused_quanta - self.macro_events) / eq

    @property
    def total_work_units(self) -> int:
        """Application work units processed across all processes."""
        if self._aggregates is not None:
            return self._aggregates[0]
        return sum(p.work_units for p in self.per_process)

    @property
    def total_msgs(self) -> int:
        """Messages sent across all processes."""
        if self._aggregates is not None:
            return self._aggregates[1]
        return sum(p.msgs_sent for p in self.per_process)

    @property
    def total_steals(self) -> int:
        """Work requests issued across all processes."""
        if self._aggregates is not None:
            return self._aggregates[2]
        return sum(p.steals_attempted for p in self.per_process)

    @property
    def total_steals_ok(self) -> int:
        """Work requests that were answered with work."""
        if self._aggregates is not None:
            return self._aggregates[3]
        return sum(p.steals_successful for p in self.per_process)

    @property
    def total_busy(self) -> float:
        """Total compute time across all processes (virtual seconds)."""
        if self._aggregates is not None:
            return self._aggregates[4]
        return sum(p.busy_time for p in self.per_process)

    def msgs_by_pid(self) -> list[int]:
        """Messages sent per process, ordered by pid (Fig 1 bottom)."""
        return [p.msgs_sent for p in self.per_process]

    def efficiency_vs(self, t_seq: float) -> float:
        """Parallel efficiency against a sequential reference time."""
        if self.makespan <= 0 or self.n <= 0:
            return 0.0
        return t_seq / (self.n * self.makespan)


__all__ = ["ProcessStats", "RunStats"]
