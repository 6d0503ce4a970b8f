"""Unit tests for the event queue: ordering, cancellation, invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.errors import SimRuntimeError
from repro.sim.events import EventQueue


def test_fifo_for_equal_times():
    q = EventQueue()
    order = []
    for i in range(5):
        q.push(1.0, lambda i=i: order.append(i))
    while (ev := q.pop()) is not None:
        ev.action()
    assert order == [0, 1, 2, 3, 4]


def test_time_ordering():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append(3))
    q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    while (ev := q.pop()) is not None:
        ev.action()
    assert fired == [1, 2, 3]


def test_now_advances_with_pop():
    q = EventQueue()
    q.push(5.0, lambda: None)
    assert q.now == 0.0
    q.pop()
    assert q.now == 5.0


def test_push_into_past_rejected():
    q = EventQueue()
    q.push(5.0, lambda: None)
    q.pop()
    with pytest.raises(SimRuntimeError):
        q.push(4.0, lambda: None)


def test_push_at_now_allowed():
    q = EventQueue()
    q.push(5.0, lambda: None)
    q.pop()
    q.push(5.0, lambda: None)  # same time is fine
    assert q.pop() is not None


def test_cancellation_skips_event():
    q = EventQueue()
    ev = q.push(1.0, lambda: (_ for _ in ()).throw(AssertionError))
    q.push(2.0, lambda: None)
    ev.cancel()
    popped = q.pop()
    assert popped is not None and popped.time == 2.0
    assert q.skipped == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(7.0, lambda: None)
    ev.cancel()
    assert q.peek_time() == 7.0


def test_len_and_bool():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push(1.0, lambda: None)
    assert q and len(q) == 1


def test_counters():
    q = EventQueue()
    for t in (1.0, 2.0):
        q.push(t, lambda: None)
    q.pop(), q.pop()
    assert q.pushed == 2 and q.fired == 2


def test_snapshot_tags():
    q = EventQueue()
    q.push(2.0, lambda: None, tag="b")
    q.push(1.0, lambda: None, tag="a")
    assert q.snapshot_tags() == [(1.0, "a"), (2.0, "b")]


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
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
    events = [(q.push(t, lambda: None), cancel) for t, cancel in entries]
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
    q.push(3.0, lambda: None, tag="late")
    q.push(1.0, lambda: None, tag="early")
    ev = q.peek()
    assert ev is not None and ev.time == 1.0 and ev.tag == "early"
    # peeking neither pops nor advances the clock
    assert len(q) == 2 and q.now == 0.0
    assert q.pop() is ev


def test_cancel_then_peek_skips_to_next_live():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None, tag="live")
    first.cancel()
    assert q.peek_time() == 2.0
    ev = q.peek()
    assert ev is not None and ev.tag == "live" and not ev.cancelled
    assert q.skipped == 1  # the cancelled head was pruned, not retained


def test_peek_all_cancelled_returns_none():
    q = EventQueue()
    evs = [q.push(float(t), lambda: None) for t in (1, 2, 3)]
    for ev in evs:
        ev.cancel()
    assert q.peek() is None
    assert q.peek_time() is None
    assert len(q) == 0


def test_peek_equal_timestamp_tiebreak_stable():
    """peek() must agree with pop() order for equal times: insertion order."""
    q = EventQueue()
    a = q.push(1.0, lambda: None, tag="a")
    q.push(1.0, lambda: None, tag="b")
    assert q.peek() is a
    # cancelling the first makes the *second* insertion the head
    a.cancel()
    ev = q.peek()
    assert ev is not None and ev.tag == "b"
    popped = q.pop()
    assert popped is ev


def test_peek_after_cancel_of_later_event():
    """Cancelling a non-head event never disturbs the head."""
    q = EventQueue()
    head = q.push(1.0, lambda: None)
    later = q.push(5.0, lambda: None)
    later.cancel()
    assert q.peek() is head
    assert q.peek_time() == 1.0


def test_peek_then_push_earlier_updates_head():
    q = EventQueue()
    q.push(5.0, lambda: None)
    assert q.peek_time() == 5.0
    early = q.push(2.0, lambda: None)
    assert q.peek() is early


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=50,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=60))
def test_property_peek_matches_next_pop(entries):
    """After arbitrary pushes and cancellations, peek() == next pop()."""
    q = EventQueue()
    for t, cancel in entries:
        ev = q.push(t, lambda: None)
        if cancel:
            ev.cancel()
    while True:
        peeked = q.peek()
        popped = q.pop()
        assert peeked is popped
        if popped is None:
            break


# -- the heap-entry layout: posted entries carry no handle -------------------


def test_post_and_push_share_one_insertion_order():
    """Equal-time posted and pushed entries fire in insertion order."""
    q = EventQueue()
    order = []
    for i in range(6):
        if i % 2:
            q.post(1.0, order.append, i)
        else:
            q.push(1.0, order.append, arg=i)
    while (ev := q.pop()) is not None:
        ev.fire()
    assert order == [0, 1, 2, 3, 4, 5]
    assert q.pushed == 6 and q.fired == 6


def test_entry_layout():
    """One flat tuple per entry; only push() fills the handle slot."""
    q = EventQueue()
    assert q.post(1.0, print, "x") is None
    ev = q.push(2.0, print, tag="t", arg="y")
    assert sorted(q._heap) == [(1.0, 0, print, "x", None),
                               (2.0, 1, print, "y", ev)]
    shard = EventQueue(tie_by_push_time=True)
    shard.post(3.0, print, "z", None, 0.5)
    assert shard._heap == [(3.0, 0.5, 0, print, "z", None)]


def test_post_into_past_rejected():
    q = EventQueue()
    q.post(5.0, lambda: None)
    q.pop()
    with pytest.raises(SimRuntimeError):
        q.post(4.0, lambda: None)


def test_pop_of_posted_entry_is_a_detached_view():
    q = EventQueue()
    q.post(1.5, print, "x")
    ev = q.pop()
    assert (ev.time, ev.action, ev.arg, ev.cancelled) == (1.5, print, "x",
                                                          False)
    assert q.now == 1.5 and q.pop() is None


def test_peek_skips_cancelled_heads_before_posted_entries():
    q = EventQueue()
    dead = q.push(1.0, lambda: None, tag="dead")
    q.post(1.0, print, "live")
    dead.cancel()
    assert q.peek_time() == 1.0
    ev = q.peek()
    assert ev.action is print and ev.arg == "live"
    assert q.skipped == 1 and len(q) == 1
    assert q.pop().arg == "live"


def test_shard_mode_orders_posted_entries_by_push_key():
    """tie_by_push_time: a barrier-injected entry (early ``sent_at``)
    beats a local one pushed before it at the same arrival time."""
    q = EventQueue(tie_by_push_time=True)
    order = []
    q.post(2.0, order.append, "local")            # push key: now == 0.0
    q.post(1.0, lambda: None)
    q.pop()                                       # now == 1.0
    q.post(2.0, order.append, "late-local")       # push key 1.0
    q.post(2.0, order.append, "injected", None, 0.5)
    while (ev := q.pop()) is not None:
        ev.fire()
    assert order == ["local", "injected", "late-local"]
    assert q.current_push_key == 1.0


def test_snapshot_tags_lists_posted_entries_untagged():
    q = EventQueue()
    q.post(1.0, print, "x")
    q.push(2.0, print, tag="timer")
    q.push(3.0, print, tag="gone").cancel()
    assert q.snapshot_tags() == [(1.0, ""), (2.0, "timer")]
