"""Event core of the discrete-event simulator.

Every heap entry is one flat tuple ``(time, key, action, arg, handle)``.
The ``key`` names the event by its cause — an *origin* pid and that
origin's *ordinal* — so simultaneous events fire in ``(origin, ordinal)``
order whatever order they were pushed in (:func:`event_key`). A process's
ordinals count what it schedules: its sends (one slot per delivery, a
duplicate its own), timers, handler completions, ``occupy`` calls and
quantum boundaries. A fused block of ``L`` quanta advances the count by
``L``, so its one event takes the key its last boundary has in an unfused
run; a shard computes every key of its own pids. That makes the serial,
fused and sharded engines fire the same events in the same order: the key
is a fact of the run, not of the engine. Crash events have the engine's
origin, :data:`ENGINE`, so a crash fires before anything else at its
instant.

Hot-path layout: keys are unique, so sift comparisons stay inside the C
tuple comparator and never reach ``action``, and firing an entry needs no
attribute lookups: ``action(arg)``, or ``action()`` when ``arg`` is None.
``handle`` is the entry's :class:`Event` — the cancel handle — or None.
:meth:`EventQueue.push` always allocates one and returns it (timers, CPU
occupancy, macro events: anything a caller may cancel);
:meth:`EventQueue.post` schedules without one, which is how the engine
schedules message deliveries and handler completions: nothing ever cancels
those (a crashed receiver drops a delivery on arrival), so they cost one
tuple and nothing else. Both go through ``post``, the single ordering path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .errors import SimRuntimeError

#: Bits of a key below its origin: up to 2**40 events per origin.
ORD_BITS = 40
#: The origin of the engine's own events (crashes); below every pid.
ENGINE = -1


def event_key(origin: int, ordinal: int) -> int:
    """The heap key of ``origin``'s ``ordinal``-th event (one int)."""
    return (origin << ORD_BITS) | ordinal


class Event:
    """A scheduled callback's handle: cancel it, or read what it runs.

    Attributes:
        time: virtual time (seconds) at which the event fires. (Its key
            lives in the heap entry only.)
        action: callable executed when the event fires — with ``arg`` when
            ``arg`` is not None, else with no arguments.
        arg: optional single argument for ``action``.
        cancelled: cooperative-cancellation flag; cancelled events are
            skipped by the queue (lazy deletion).
        tag: free-form debugging label (empty unless the scheduler runs
            with tracing on).
    """

    # weak-referenceable: a protocol may hold its pending timer weakly
    __slots__ = ("time", "action", "arg", "cancelled", "tag", "__weakref__")

    def __init__(self, time: float, action: Callable[..., None],
                 arg: Any = None, tag: str = "") -> None:
        self.time = time
        self.action = action
        self.arg = arg
        self.cancelled = False
        self.tag = tag

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def fire(self) -> None:
        """Run the callback (with ``arg`` when present)."""
        if self.arg is not None:
            self.action(self.arg)
        else:
            self.action()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = " cancelled" if self.cancelled else ""
        label = f" tag={self.tag!r}" if self.tag else ""
        return f"<Event t={self.time:.6f}{label}{flags}>"


class EventQueue:
    """Min-heap of :class:`Event` with lazy cancellation, ordered by
    ``(time, key)`` (see the module docstring).

    The queue never rewinds: pushing an event earlier than the last popped
    time raises :class:`SimRuntimeError` (a protocol scheduling bug).
    """

    __slots__ = ("_heap", "_now", "fired", "skipped")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._now = 0.0
        self.fired = 0
        self.skipped = 0

    @property
    def now(self) -> float:
        """Virtual time of the last popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, key: int, action: Callable[..., None],
             tag: str = "", arg: Any = None) -> Event:
        """Schedule ``action`` at virtual ``time``; returns a cancellable handle.

        ``key`` breaks ties at equal times (:func:`event_key`; unique among
        pending entries). ``arg``, when given, is passed to ``action`` at
        fire time — the zero-allocation alternative to binding it in a
        lambda.
        """
        ev = Event(time, action, arg, tag)
        self.post(time, key, action, arg, ev)
        return ev

    def post(self, time: float, key: int, action: Callable[..., None],
             arg: Any = None, handle: Optional[Event] = None) -> None:
        """Schedule ``action`` at virtual ``time`` without a cancel handle.

        The one ordering path: :meth:`push` is this plus an :class:`Event`
        in the entry's ``handle`` slot. Without one the entry can never be
        cancelled, which is exactly right for what the engine posts here —
        deliveries and handler completions — and saves allocating a
        handle nobody holds.
        """
        if time < self._now:
            tag = handle.tag if handle is not None else ""
            raise SimRuntimeError(
                f"cannot schedule event at t={time:.9f} before current t={self._now:.9f}"
                + (f" (tag={tag!r})" if tag else "")
            )
        heappush(self._heap, (time, key, action, arg, handle))

    @staticmethod
    def _detached(entry: tuple) -> Event:
        """A read-only view of a posted entry, for :meth:`pop` and
        :meth:`peek` (cancelling it has no effect on the queue)."""
        return Event(entry[0], entry[2], entry[3])

    def pop(self) -> Optional[Event]:
        """Pop the next live event, advancing ``now``; None when drained.

        The engine pops inline (``Simulator.run``/``run_window``); this is
        the same step for everyone else.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            ev = entry[-1]
            if ev is None:
                ev = self._detached(entry)
            elif ev.cancelled:
                self.skipped += 1
                continue
            self._now = entry[0]
            self.fired += 1
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it.

        Cancelled events at the head of the heap are dropped eagerly so the
        answer is exact — a guarantee the macro-event fast path relies on:
        no live event exists anywhere in the queue before the returned
        time. Ties at the returned time may still be pending; callers that
        fuse ahead must treat the peeked time itself as unsafe.
        """
        heap = self._heap
        while heap and (ev := heap[0][-1]) is not None and ev.cancelled:
            heappop(heap)
            self.skipped += 1
        return heap[0][0] if heap else None

    def peek(self) -> Optional[Event]:
        """The next live event itself, without popping (None when drained).

        Like :meth:`peek_time` this prunes cancelled heads, so the returned
        event is guaranteed live *at call time*; it may of course be
        cancelled afterwards through the handle.
        """
        if self.peek_time() is None:
            return None
        ev = self._heap[0][-1]
        return ev if ev is not None else self._detached(self._heap[0])

    def snapshot_tags(self) -> list[tuple[float, str]]:
        """Sorted (time, tag) of live events; debugging aid for deadlocks.

        Posted entries have no tag unless the engine runs with
        ``debug=True``, which schedules them through :meth:`push` instead.
        """
        return sorted((entry[0], "" if ev is None else ev.tag)
                      for entry in self._heap
                      if (ev := entry[-1]) is None or not ev.cancelled)


__all__ = ["ENGINE", "ORD_BITS", "Event", "EventQueue", "event_key"]
