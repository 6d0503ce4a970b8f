"""Wire codec: tagged-JSON round trips and length-prefix framing edges.

The live transport may deliver any byte split — partial length prefixes,
frames spanning many ``recv`` calls, several frames in one chunk — and the
payload encoding must preserve exactly the Python shapes the protocols
rely on (tuples for fault-mode wave payloads, numpy ``uint64`` UTS states
above 2^53, work pieces). Everything here runs in-process: no sockets.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bnb.work import BnBWork
from repro.runtime.codec import (FrameDecoder, MAX_FRAME_BYTES, WireError,
                                 from_wire, message_from_frame,
                                 message_to_frame, pack_frame, stats_from_wire,
                                 stats_to_wire, to_wire)
from repro.sim.messages import sized
from repro.sim.stats import ProcessStats
from repro.uts.params import PRESETS
from repro.uts.work import UTSWork

TINY = PRESETS["bin_tiny"].params


def roundtrip(obj):
    return from_wire(to_wire(obj))


def frame(head: bytes, tail: bytes = b"") -> bytes:
    """A frame built by hand: length, head length, head, tail."""
    return struct.pack(">II", 4 + len(head) + len(tail), len(head)) + (
        head + tail)


# -- payload round trips -----------------------------------------------------

def test_scalars_and_containers_roundtrip():
    for obj in (None, True, False, 0, -7, 3.25, "x",
                [1, [2, 3]], (1, (2, "a")), {1: 2, "k": (3,)},
                frozenset({1, 2}), {4, 5}):
        back = roundtrip(obj)
        assert back == obj
        assert type(back) is type(obj)


def test_tuple_identity_survives():
    # TerminationWaves detects fault-mode waves via isinstance(payload,
    # tuple) — a tuple that comes back as a list changes protocol behavior
    back = roundtrip((3, frozenset({1, 2}), 7))
    assert isinstance(back, tuple)
    assert isinstance(back[1], frozenset)


def test_numpy_scalars_become_ints():
    assert roundtrip(np.uint64(2**60 + 3)) == 2**60 + 3
    assert roundtrip(np.int32(-5)) == -5
    assert roundtrip(np.float64(1.5)) == 1.5


def test_uts_work_roundtrip_exact():
    work = UTSWork.root(TINY)
    # grow a few nodes so the stacks are non-trivial
    from repro.apps.uts_app import UTSApplication
    app = UTSApplication(TINY)
    app.process(work, 50, None)
    states, depths = work.peek()
    back = roundtrip(work)
    b_states, b_depths = back.peek()
    assert np.array_equal(states, b_states)     # uint64-exact, > 2^53 ok
    assert np.array_equal(depths, b_depths)
    assert back.params == work.params


def test_uts_empty_work_roundtrip():
    back = roundtrip(UTSWork.empty(TINY))
    assert back.is_empty()


def test_uts_stacks_ride_packed_and_exact_above_2_63():
    """The stacks are the raw little-endian bytes, one buffer each (no
    per-entry int), through a WORK frame's raw tail, and stay exact where
    a float or a signed 64-bit would not."""
    states = np.array([2**63, 2**64 - 1, 2**63 + 12345, 7], dtype=np.uint64)
    depths = np.array([1, 2, 2**31 - 1, 4], dtype=np.int32)
    work = UTSWork(TINY, states=states, depths=depths)
    wire = to_wire(work)["__uts"]
    assert wire["s"] == states.astype("<u8").tobytes()
    assert wire["d"] == depths.astype("<i4").tobytes()
    msg = sized("WORK", 1, 0, (work, ""), work.encoded_bytes())
    (frame,) = FrameDecoder().feed(pack_frame(message_to_frame(msg)))
    back, _channel = message_from_frame(frame).payload
    b_states, b_depths = back.peek()
    assert b_states.dtype == np.uint64 and b_depths.dtype == np.int32
    assert np.array_equal(b_states, states)
    assert np.array_equal(b_depths, depths)


def test_decoded_uts_work_owns_writable_stacks():
    # np.frombuffer views are read-only; the pool must be processable
    from repro.apps.uts_app import UTSApplication
    app = UTSApplication(TINY)
    work = UTSWork.root(TINY)
    app.process(work, 50, None)
    back = roundtrip(work)
    assert app.process(back, 64, None).units == 64
    assert app.process(work, 64, None).units == 64
    assert np.array_equal(back.peek()[0], work.peek()[0])


def _hex_id(value):
    """A ``bytes`` case is named by its hex (None: pytest's own id)."""
    return value.hex() if isinstance(value, bytes) else None


@pytest.mark.parametrize("s, d", [
    ("abc", b""),                      # text where raw bytes belong
    ("zz" * 8, bytes(4)),              # text, not even the old hex form
    (bytes(7), b""),                   # 7 bytes: not a whole uint64
    (bytes(8), bytes(3)),              # 3 bytes: not a whole int32
    (bytes(16), bytes(4)),             # two states, one depth
    ([1, 2], [0, 0]),                  # the old list-of-ints form
    (None, None),
], ids=_hex_id)
def test_uts_decode_rejects_bad_packed_stacks(s, d):
    body = {"p": to_wire(UTSWork.empty(TINY))["__uts"]["p"], "s": s, "d": d}
    with pytest.raises(WireError):
        from_wire({"__uts": body})


def test_bnb_work_roundtrip():
    work = BnBWork(6, [(0, 10), (700, 720)])
    back = roundtrip(work)
    assert back.n_jobs == 6
    assert back.as_tuples() == work.as_tuples()


def test_bnb_work_roundtrip_keeps_a_merged_pools_order():
    """``merge`` appends what it received, so a pool that absorbed a
    transfer is not ascending — and must still cross the wire, in the
    order ``split`` will hand its intervals out."""
    hi = BnBWork.full_tree(6)
    taken = hi.split(.5)
    lo = hi.split(.5)
    taken.merge(lo)
    assert taken.as_tuples() == [(360, 720), (240, 360)]
    assert roundtrip(taken).as_tuples() == taken.as_tuples()


@pytest.mark.parametrize("intervals", [
    [[0, 10], [5, 20]],          # overlapping
    [[360, 720], [240, 400]],    # overlapping, out of order
    [[0, 721]],                  # past the last leaf of 6!
    [[-1, 4]],
    [[5, 5]],                    # empty
    # a whole body: the job count is checked before it sizes anything
    {"n": 21, "i": []},          # more jobs than a Taillard instance
    {"n": 0, "i": []},
    {"n": 6.0, "i": []},
    {"n": True, "i": []},
    {"n": "6", "i": []},
])
def test_bnb_decode_still_rejects_bad_intervals(intervals):
    """Intervals at ``n=6``, or a whole ``__bnb`` body."""
    body = (intervals if isinstance(intervals, dict)
            else {"n": 6, "i": intervals})
    with pytest.raises(WireError):
        from_wire({"__bnb": body})


def test_unencodable_object_raises():
    with pytest.raises(WireError):
        to_wire(object())
    with pytest.raises(WireError):
        from_wire({"__nope": 1})


def test_message_frame_roundtrip_preserves_size():
    msg = sized("WORK", 2, 5, (UTSWork.root(TINY), 1), 64)
    frame = message_to_frame(msg)
    back = message_from_frame(frame)
    assert (back.kind, back.src, back.dst) == ("WORK", 2, 5)
    assert back.size_bytes == msg.size_bytes    # sender-priced, carried
    assert isinstance(back.payload, tuple)


@pytest.mark.parametrize("damage", [
    lambda f: f.update(p={"__nope": 1}),         # unknown wire tag
    lambda f: f.update(p={"__syn": -1}),         # refused by its constructor
    lambda f: f.update(p={"__uts": {"s": ""}}),  # a payload field missing
    lambda f: f.pop("kind"),                     # a frame field missing
    lambda f: f.update(p={"__bnb": {"n": 21, "i": []}}),   # n! too large
    lambda f: f.update(p={"__syn": float("inf")}),  # what 1e400 parses as
    lambda f: f.update(p={"__syn": 1.5}),        # not a whole unit count
    lambda f: f.update(p={"__syn": True}),
])
def test_malformed_msg_frame_raises_wire_error(damage):
    """Anything a member can put in a ``msg`` that does not rebuild a
    message is a WireError, the one error the reactor treats as hostile."""
    frame = message_to_frame(sized("WORK", 2, 5, None, 0))
    damage(frame)
    with pytest.raises(WireError):
        message_from_frame(frame)


def test_stats_roundtrip_restores_inf_crash_time():
    ps = ProcessStats(pid=3, work_units=42, busy_time=1.5)
    doc = stats_to_wire(ps)
    assert "crash_time" not in doc              # inf is not JSON
    back = stats_from_wire(doc, 3)
    assert back.work_units == 42
    assert back.crash_time == float("inf")


# -- framing -----------------------------------------------------------------

def test_frames_survive_byte_at_a_time_delivery():
    frames = [{"a": 1}, {"b": [1, 2, 3]}, {"c": "x" * 500}]
    stream = b"".join(pack_frame(f) for f in frames)
    dec = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(dec.feed(stream[i:i + 1]))
    assert out == frames
    dec.close()                                  # nothing left buffered


def test_many_frames_in_one_chunk():
    frames = [{"i": i} for i in range(50)]
    dec = FrameDecoder()
    out = list(dec.feed(b"".join(pack_frame(f) for f in frames)))
    assert out == frames


def test_message_larger_than_one_recv_chunk():
    big = {"blob": "y" * (200 * 1024)}          # > the 64 KiB recv chunk
    stream = pack_frame(big)
    dec = FrameDecoder()
    out = []
    for ofs in range(0, len(stream), 65536):
        out.extend(dec.feed(stream[ofs:ofs + 65536]))
    assert out == [big]


def test_zero_length_frame_rejected_both_ways():
    with pytest.raises(WireError):
        list(FrameDecoder().feed(b"\x00\x00\x00\x00"))
    # the packer cannot even express one ({} packs to 2 bytes)
    assert len(json.dumps({}).encode()) > 0


def test_peer_closing_mid_frame_detected():
    stream = pack_frame({"k": "v"})
    dec = FrameDecoder()
    list(dec.feed(stream[:len(stream) - 3]))    # torn tail
    with pytest.raises(WireError, match="mid-frame"):
        dec.close()


def test_clean_close_after_whole_frames():
    dec = FrameDecoder()
    list(dec.feed(pack_frame({"k": 1})))
    dec.close()                                  # no residue: fine


def test_oversized_length_prefix_rejected():
    evil = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="exceeds"):
        list(FrameDecoder().feed(evil))


def test_undecodable_body_rejected():
    with pytest.raises(WireError, match="undecodable"):
        list(FrameDecoder().feed(frame(b"\xff\xfe\xfd")))


def test_non_object_body_rejected():
    with pytest.raises(WireError, match="object"):
        list(FrameDecoder().feed(frame(b"[1,2]")))


def test_pickle_never_touches_the_wire():
    # a WORK frame is a UTF-8 JSON head and exactly the stacks' bytes
    work = UTSWork.root(TINY)
    msg = sized("WORK", 0, 1, (work, 2), 64)
    raw = pack_frame(message_to_frame(msg))
    (n_head,) = struct.unpack_from(">I", raw, 4)
    head, tail = raw[8:8 + n_head], raw[8 + n_head:]
    json.loads(head.decode("utf-8"))             # decodes as JSON
    states, depths = work.peek()
    assert tail == states.tobytes() + depths.tobytes()
    assert b"pickle" not in head and not head.startswith(b"\x80")


# -- hostile raw tails -------------------------------------------------------

def _ref(*refs) -> bytes:
    """A head holding one raw reference per entry of ``refs``."""
    return json.dumps({"t": "x", "r": [{"__raw": r} for r in refs]}).encode()


@pytest.mark.parametrize("body", [
    pytest.param(struct.pack(">I", 100) + b"{}", id="head-past-body"),
    pytest.param(struct.pack(">I", 3) + b"{}", id="head-one-past-body"),
    pytest.param(frame(_ref([0, 9]), bytes(8))[4:], id="ref-past-tail"),
    pytest.param(frame(_ref([8, 1]), bytes(8))[4:], id="ref-starts-past"),
    pytest.param(frame(_ref([0, 4], [2, 4]), bytes(6))[4:], id="overlap"),
    pytest.param(frame(_ref([4, 4], [0, 4]), bytes(8))[4:],
                 id="out-of-order"),
    pytest.param(frame(_ref([0, 4], [6, 2]), bytes(8))[4:], id="gap"),
    pytest.param(frame(_ref([0, 4]), bytes(6))[4:], id="unnamed-tail"),
    pytest.param(frame(b"{}", bytes(1))[4:], id="tail-without-ref"),
    pytest.param(frame(_ref([0, -1]), bytes(8))[4:], id="negative-length"),
    pytest.param(frame(_ref([0, 1.5]), bytes(8))[4:], id="float-length"),
    pytest.param(frame(_ref("x"), bytes(8))[4:], id="text-ref"),
    pytest.param(frame(_ref([0]), bytes(8))[4:], id="short-ref"),
    pytest.param(frame(_ref([False, 8]), bytes(8))[4:], id="bool-offset"),
])
def test_hostile_raw_tails_raise_wire_error(body):
    with pytest.raises(WireError):
        list(FrameDecoder().feed(struct.pack(">I", len(body)) + body))


def test_references_that_tile_the_tail_decode():
    head = _ref([0, 2], [2, 0], [2, 3])
    (obj,) = FrameDecoder().feed(frame(head, b"abcde"))
    assert obj["r"] == [b"ab", b"", b"cde"]


@given(states=st.lists(st.integers(0, 2**64 - 1), max_size=6),
       mask=st.integers(1, 255))
def test_a_damaged_uts_work_frame_rebuilds_or_raises_wire_error(states,
                                                                  mask):
    """Every truncation and every single-byte flip of a UTS WORK frame,
    fed to the decoder and then rebuilt as a message, either rebuilds or
    raises WireError: never another exception."""
    work = UTSWork(TINY, states=np.array(states, dtype=np.uint64),
                   depths=np.arange(1, len(states) + 1, dtype=np.int32))
    good = pack_frame(message_to_frame(
        sized("WORK", 1, 0, (work, ""), work.encoded_bytes())))
    damaged = [good[:i] for i in range(len(good))] + [
        good[:i] + bytes([good[i] ^ mask]) + good[i + 1:]
        for i in range(len(good))]
    for data in damaged:
        dec = FrameDecoder()
        try:
            for obj in dec.feed(data):
                message_from_frame(obj)
            dec.close()
        except WireError:
            pass
