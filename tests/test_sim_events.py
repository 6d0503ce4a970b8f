"""Unit tests for the event queue: ordering, cancellation, invariants."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.errors import SimRuntimeError
from repro.sim.events import ENGINE, ORD_BITS, EventQueue, event_key
from repro.sim.messages import Message


def test_equal_times_fire_in_key_order():
    """Equal-time entries fire in (origin, ordinal) order, whatever order
    they were pushed in."""
    keys = [event_key(origin, ordinal)
            for origin in (0, 1, 7) for ordinal in (0, 1, 2, 1 << 30)]
    for seed in range(5):
        shuffled = keys[:]
        random.Random(seed).shuffle(shuffled)
        q = EventQueue()
        order = []
        for i, key in enumerate(shuffled):
            if i % 2:
                q.post(1.0, key, order.append, key)
            else:
                q.push(1.0, key, order.append, arg=key)
        while (ev := q.pop()) is not None:
            ev.fire()
        assert order == sorted(keys)
        assert [(k >> ORD_BITS, k & ((1 << ORD_BITS) - 1))
                for k in order] == sorted(
            (o, d) for o in (0, 1, 7) for d in (0, 1, 2, 1 << 30))


def test_engine_origin_sorts_before_every_pid():
    """Crash events (the engine's origin) fire first at their instant."""
    q = EventQueue()
    order = []
    q.push(1.0, event_key(0, 0), order.append, arg="pid 0")
    q.push(1.0, event_key(ENGINE, 5), order.append, arg="crash 5")
    q.push(1.0, event_key(ENGINE, 0), order.append, arg="crash 0")
    while (ev := q.pop()) is not None:
        ev.fire()
    assert order == ["crash 0", "crash 5", "pid 0"]


def test_duplicate_delivery_gets_its_own_key():
    """A duplicated message is two deliveries, each with its own key from
    the sender's ordinals, so the two never tie in the heap."""
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultPlan
    from repro.sim.network import uniform_network
    from repro.sim.process import SimProcess

    sim = Simulator(uniform_network(latency=1e-4), seed=0,
                    faults=FaultPlan(dup=0.5))
    sim.add_process(SimProcess(0))
    sim.add_process(SimProcess(1))
    sim.begin_windows()
    for _ in range(20):
        sim.transmit(Message(0, 1, "PING", None, 64))
    entries = sorted(sim.queue._heap)
    keys = [e[1] for e in entries]
    assert len(set(keys)) == len(keys) == 20 + sim.stats.per_process[0].msgs_duplicated
    by_msg: dict = {}
    for e in entries:
        by_msg.setdefault(id(e[3]), []).append(e[1])
    pairs = [ks for ks in by_msg.values() if len(ks) == 2]
    assert pairs and len(pairs) == sim.stats.per_process[0].msgs_duplicated
    for original, dup in pairs:
        # the duplicate takes the sender's next ordinal
        assert dup == original + 1
    assert sim.processes[0]._key == event_key(0, len(keys))


def test_time_ordering():
    q = EventQueue()
    fired = []
    q.push(3.0, 0, lambda: fired.append(3))
    q.push(1.0, 1, lambda: fired.append(1))
    q.push(2.0, 2, lambda: fired.append(2))
    while (ev := q.pop()) is not None:
        ev.action()
    assert fired == [1, 2, 3]


def test_now_advances_with_pop():
    q = EventQueue()
    q.push(5.0, 0, lambda: None)
    assert q.now == 0.0
    q.pop()
    assert q.now == 5.0


def test_push_into_past_rejected():
    q = EventQueue()
    q.push(5.0, 0, lambda: None)
    q.pop()
    with pytest.raises(SimRuntimeError):
        q.push(4.0, 1, lambda: None)


def test_push_at_now_allowed():
    q = EventQueue()
    q.push(5.0, 0, lambda: None)
    q.pop()
    q.push(5.0, 1, lambda: None)  # same time is fine
    assert q.pop() is not None


def test_cancellation_skips_event():
    q = EventQueue()
    ev = q.push(1.0, 0, lambda: (_ for _ in ()).throw(AssertionError))
    q.push(2.0, 1, lambda: None)
    ev.cancel()
    popped = q.pop()
    assert popped is not None and popped.time == 2.0
    assert q.skipped == 1


def test_cancelled_equal_time_entry_skipped_in_key_order():
    """A cancelled handle is skipped even when it holds the smallest key
    at its instant; the next key fires in its place."""
    q = EventQueue()
    first = q.push(1.0, event_key(0, 0), lambda: None, tag="first")
    q.post(1.0, event_key(3, 0), print, "posted")
    q.push(1.0, event_key(1, 0), lambda: None, tag="second")
    first.cancel()
    assert q.pop().tag == "second"
    assert q.pop().arg == "posted"
    assert q.pop() is None and q.skipped == 1 and q.fired == 2


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, 0, lambda: None)
    q.push(7.0, 1, lambda: None)
    ev.cancel()
    assert q.peek_time() == 7.0


def test_len_and_bool():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push(1.0, 0, lambda: None)
    assert q and len(q) == 1


def test_counters():
    q = EventQueue()
    for k, t in enumerate((1.0, 2.0)):
        q.push(t, k, lambda: None)
    q.pop(), q.pop()
    assert q.fired == 2 and q.skipped == 0


def test_snapshot_tags():
    q = EventQueue()
    q.push(2.0, 0, lambda: None, tag="b")
    q.push(1.0, 1, lambda: None, tag="a")
    assert q.snapshot_tags() == [(1.0, "a"), (2.0, "b")]


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    q = EventQueue()
    for k, t in enumerate(times):
        q.push(t, k, lambda: None)
    popped = []
    while (ev := q.pop()) is not None:
        popped.append(ev.time)
    assert popped == sorted(times)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=100))
def test_property_cancelled_never_fire(entries):
    q = EventQueue()
    events = [(q.push(t, k, lambda: None), cancel)
              for k, (t, cancel) in enumerate(entries)]
    live = 0
    for ev, cancel in events:
        if cancel:
            ev.cancel()
        else:
            live += 1
    fired = 0
    while q.pop() is not None:
        fired += 1
    assert fired == live


# -- peek / cancel edges (the contracts the macro-event fast path rests on) --


def test_peek_returns_next_live_event():
    q = EventQueue()
    q.push(3.0, 0, lambda: None, tag="late")
    q.push(1.0, 1, lambda: None, tag="early")
    ev = q.peek()
    assert ev is not None and ev.time == 1.0 and ev.tag == "early"
    # peeking neither pops nor advances the clock
    assert len(q) == 2 and q.now == 0.0
    assert q.pop() is ev


def test_cancel_then_peek_skips_to_next_live():
    q = EventQueue()
    first = q.push(1.0, 0, lambda: None)
    q.push(2.0, 1, lambda: None, tag="live")
    first.cancel()
    assert q.peek_time() == 2.0
    ev = q.peek()
    assert ev is not None and ev.tag == "live" and not ev.cancelled
    assert q.skipped == 1  # the cancelled head was pruned, not retained


def test_peek_all_cancelled_returns_none():
    q = EventQueue()
    evs = [q.push(float(t), t, lambda: None) for t in (1, 2, 3)]
    for ev in evs:
        ev.cancel()
    assert q.peek() is None
    assert q.peek_time() is None
    assert len(q) == 0


def test_peek_equal_timestamp_tiebreak_stable():
    """peek() must agree with pop() order for equal times: key order."""
    q = EventQueue()
    q.push(1.0, event_key(2, 0), lambda: None, tag="b")
    a = q.push(1.0, event_key(1, 9), lambda: None, tag="a")
    assert q.peek() is a
    # cancelling the smaller key makes the *other* entry the head
    a.cancel()
    ev = q.peek()
    assert ev is not None and ev.tag == "b"
    popped = q.pop()
    assert popped is ev


def test_peek_after_cancel_of_later_event():
    """Cancelling a non-head event never disturbs the head."""
    q = EventQueue()
    head = q.push(1.0, 0, lambda: None)
    later = q.push(5.0, 1, lambda: None)
    later.cancel()
    assert q.peek() is head
    assert q.peek_time() == 1.0


def test_peek_then_push_earlier_updates_head():
    q = EventQueue()
    q.push(5.0, 0, lambda: None)
    assert q.peek_time() == 5.0
    early = q.push(2.0, 1, lambda: None)
    assert q.peek() is early


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=50,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=60))
def test_property_peek_matches_next_pop(entries):
    """After arbitrary pushes and cancellations, peek() == next pop()."""
    q = EventQueue()
    for k, (t, cancel) in enumerate(entries):
        ev = q.push(t, k, lambda: None)
        if cancel:
            ev.cancel()
    while True:
        peeked = q.peek()
        popped = q.pop()
        assert peeked is popped
        if popped is None:
            break


# -- the heap-entry layout: posted entries carry no handle -------------------


def test_post_and_push_share_one_key_order():
    """Equal-time posted and pushed entries fire in one key order."""
    q = EventQueue()
    order = []
    for i in (5, 2, 4, 1, 3, 0):
        if i % 2:
            q.post(1.0, i, order.append, i)
        else:
            q.push(1.0, i, order.append, arg=i)
    while (ev := q.pop()) is not None:
        ev.fire()
    assert order == [0, 1, 2, 3, 4, 5]
    assert q.fired == 6


def test_entry_layout():
    """One flat tuple per entry; only push() fills the handle slot."""
    q = EventQueue()
    assert q.post(1.0, 7, print, "x") is None
    ev = q.push(2.0, 3, print, tag="t", arg="y")
    assert sorted(q._heap) == [(1.0, 7, print, "x", None),
                               (2.0, 3, print, "y", ev)]


def test_post_into_past_rejected():
    q = EventQueue()
    q.post(5.0, 0, lambda: None)
    q.pop()
    with pytest.raises(SimRuntimeError):
        q.post(4.0, 1, lambda: None)


def test_pop_of_posted_entry_is_a_detached_view():
    q = EventQueue()
    q.post(1.5, 0, print, "x")
    ev = q.pop()
    assert (ev.time, ev.action, ev.arg, ev.cancelled) == (1.5, print, "x",
                                                          False)
    assert q.now == 1.5 and q.pop() is None


def test_peek_skips_cancelled_heads_before_posted_entries():
    q = EventQueue()
    dead = q.push(1.0, 0, lambda: None, tag="dead")
    q.post(1.0, 1, print, "live")
    dead.cancel()
    assert q.peek_time() == 1.0
    ev = q.peek()
    assert ev.action is print and ev.arg == "live"
    assert q.skipped == 1 and len(q) == 1
    assert q.pop().arg == "live"


def test_snapshot_tags_lists_posted_entries_untagged():
    q = EventQueue()
    q.post(1.0, 0, print, "x")
    q.push(2.0, 1, print, tag="timer")
    q.push(3.0, 2, print, tag="gone").cancel()
    assert q.snapshot_tags() == [(1.0, ""), (2.0, "timer")]
