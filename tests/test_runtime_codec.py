"""Wire codec: tagged-JSON round trips and length-prefix framing edges.

The live transport may deliver any byte split — partial length prefixes,
frames spanning many ``recv`` calls, several frames in one chunk — and the
payload encoding must preserve exactly the Python shapes the protocols
rely on (tuples for fault-mode wave payloads, numpy ``uint64`` UTS states
above 2^53, work pieces). Everything here runs in-process: no sockets.
"""

import numpy as np
import pytest

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
    """The stacks are one little-endian hex string each (no per-entry
    int), through a WORK frame's JSON bytes, and stay exact where a float
    or a signed 64-bit would not."""
    states = np.array([2**63, 2**64 - 1, 2**63 + 12345, 7], dtype=np.uint64)
    depths = np.array([1, 2, 2**31 - 1, 4], dtype=np.int32)
    work = UTSWork(TINY, states=states, depths=depths)
    wire = to_wire(work)["__uts"]
    assert wire["s"] == states.astype("<u8").tobytes().hex()
    assert wire["d"] == depths.astype("<i4").tobytes().hex()
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


@pytest.mark.parametrize("s, d", [
    ("abc", ""),                       # odd-length hex
    ("zz" * 8, "00" * 4),              # non-hex characters
    ("00" * 7, ""),                    # 7 bytes: not a whole uint64
    ("00" * 8, "00" * 3),              # 3 bytes: not a whole int32
    ("00" * 16, "00" * 4),             # two states, one depth
    ([1, 2], [0, 0]),                  # the old list-of-ints form
    (None, None),
])
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
])
def test_bnb_decode_still_rejects_bad_intervals(intervals):
    with pytest.raises(WireError):
        from_wire({"__bnb": {"n": 6, "i": intervals}})


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
    assert dec.pending_bytes == 0


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
    import json as _json
    # the packer cannot even express one ({} packs to 2 bytes)
    assert len(_json.dumps({}).encode()) > 0


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
    import struct
    evil = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="exceeds"):
        list(FrameDecoder().feed(evil))


def test_undecodable_body_rejected():
    import struct
    with pytest.raises(WireError, match="undecodable"):
        list(FrameDecoder().feed(struct.pack(">I", 3) + b"\xff\xfe\xfd"))


def test_non_object_body_rejected():
    import struct
    body = b"[1,2]"
    with pytest.raises(WireError, match="object"):
        list(FrameDecoder().feed(struct.pack(">I", len(body)) + body))


def test_pickle_never_touches_the_wire():
    # the frame bytes of a WORK message must be plain UTF-8 JSON
    msg = sized("WORK", 0, 1, (UTSWork.root(TINY), 2), 64)
    raw = pack_frame(message_to_frame(msg))
    body = raw[4:]
    import json as _json
    _json.loads(body.decode("utf-8"))            # decodes as JSON
    assert b"pickle" not in body and not body.startswith(b"\x80")
