"""Event core of the discrete-event simulator.

The :class:`EventQueue` is a binary heap ordered by ``(time, seq)`` where
``seq`` is a global insertion counter. The counter makes simultaneous events
fire in insertion order, which is what makes whole-protocol runs
bit-reproducible.

Hot-path layout: every heap entry is one flat tuple ``(time, seq, action,
arg, handle)`` — ``(time, push_key, seq, action, arg, handle)`` in shard
mode — so sift comparisons stay inside the C tuple comparator (``seq`` is
unique, so the comparison never reaches ``action``) and firing an entry
needs no attribute lookups: ``action(arg)``, or ``action()`` when ``arg`` is
None. ``handle`` is the entry's :class:`Event` — the cancel handle — or
None. :meth:`EventQueue.push` always allocates one and returns it (timers,
CPU occupancy, macro events: anything a caller may cancel);
:meth:`EventQueue.post` schedules without one, which is how the engine
schedules message deliveries and handler completions: nothing ever cancels
those (a crashed receiver drops a delivery on arrival), so they cost one
tuple and nothing else. Both go through ``post``, the single ordering path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .errors import SimRuntimeError


class Event:
    """A scheduled callback's handle: cancel it, or read what it runs.

    Attributes:
        time: virtual time (seconds) at which the event fires. (Its
            insertion sequence number lives in the heap entry only.)
        action: callable executed when the event fires — with ``arg`` when
            ``arg`` is not None, else with no arguments.
        arg: optional single argument for ``action``.
        cancelled: cooperative-cancellation flag; cancelled events are
            skipped by the queue (lazy deletion).
        tag: free-form debugging label (empty unless the scheduler runs
            with tracing on).
    """

    __slots__ = ("time", "action", "arg", "cancelled", "tag")

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
    """Min-heap of :class:`Event` with lazy cancellation.

    The queue never rewinds: pushing an event earlier than the last popped
    time raises :class:`SimRuntimeError` (a protocol scheduling bug).

    Tie-breaking has two modes. The default heap key is ``(time, seq)``:
    simultaneous events fire in insertion order, which makes serial runs
    bit-reproducible. Sharded runs (``tie_by_push_time=True``) key by
    ``(time, push_key, seq)`` where ``push_key`` is the virtual time at
    which the event was *pushed* — or, for deliveries injected at a window
    barrier, the original send time passed via ``sent_at``. Because the
    serial clock is monotone, serial insertion order *is* push-time order,
    so the three-part key reproduces the serial tie-break even though a
    barrier-injected arrival enters the heap long after the local events
    it must beat (its ``push_key`` is the instant serial would have pushed
    it). Ties are only unresolvable when two competing events were pushed
    at the exact same virtual instant from different shards.
    """

    __slots__ = ("_heap", "_seq", "_now", "_tie_by_push", "_pop_key",
                 "fired", "skipped")

    def __init__(self, tie_by_push_time: bool = False) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._tie_by_push = tie_by_push_time
        self._pop_key = 0.0
        self.fired = 0
        self.skipped = 0

    @property
    def pushed(self) -> int:
        """Entries scheduled so far (every one took a sequence number)."""
        return self._seq

    @property
    def now(self) -> float:
        """Virtual time of the last popped event (0.0 initially)."""
        return self._now

    @property
    def current_push_key(self) -> float:
        """Push key of the event currently firing (``tie_by_push_time``
        mode only; 0.0 before the first pop). The shard engine stamps it
        onto exported deliveries as their *cause key*: two deliveries sent
        at the same virtual instant from different processes are ordered
        in serial by which causing event fired first, and the causing
        events themselves are ordered by push key — so carrying the key
        lets the receiving shard reproduce that order."""
        return self._pop_key

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, action: Callable[..., None], tag: str = "",
             arg: Any = None, sent_at: Optional[float] = None) -> Event:
        """Schedule ``action`` at virtual ``time``; returns a cancellable handle.

        ``arg``, when given, is passed to ``action`` at fire time — the
        zero-allocation alternative to binding it in a lambda. ``sent_at``
        overrides the tie-break push key in ``tie_by_push_time`` mode (the
        shard engine passes the original send time of barrier-injected
        deliveries); it is ignored in the default mode.
        """
        ev = Event(time, action, arg, tag)
        self.post(time, action, arg, ev, sent_at)
        return ev

    def post(self, time: float, action: Callable[..., None], arg: Any = None,
             handle: Optional[Event] = None,
             sent_at: Optional[float] = None) -> None:
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
        seq = self._seq
        self._seq = seq + 1
        if self._tie_by_push:
            heappush(self._heap, (
                time, self._now if sent_at is None else sent_at, seq,
                action, arg, handle))
        else:
            heappush(self._heap, (time, seq, action, arg, handle))

    @staticmethod
    def _detached(entry: tuple) -> Event:
        """A read-only view of a posted entry, for :meth:`pop` and
        :meth:`peek` (cancelling it has no effect on the queue)."""
        return Event(entry[0], entry[-3], entry[-2])

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
            if self._tie_by_push:
                self._pop_key = entry[1]
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

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def snapshot_tags(self) -> list[tuple[float, str]]:
        """Sorted (time, tag) of live events; debugging aid for deadlocks.

        Posted entries have no tag unless the engine runs with
        ``debug=True``, which schedules them through :meth:`push` instead.
        """
        return sorted((entry[0], "" if ev is None else ev.tag)
                      for entry in self._heap
                      if (ev := entry[-1]) is None or not ev.cancelled)


__all__ = ["Event", "EventQueue"]
