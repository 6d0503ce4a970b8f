"""Message envelope shared by every protocol in the repository.

Protocols define their own payload types; the simulator only needs the
``(src, dst, kind, size_bytes)`` envelope to route and price a message.

``Message`` is a hand-written ``__slots__`` class rather than a dataclass:
a message is allocated for every simulated send, so the constructor sits on
the simulator hot path and is kept to plain attribute stores plus the
header-size clamp (no ``__post_init__`` indirection, no ``__dict__``).
"""

from __future__ import annotations

from typing import Any

#: Fixed protocol-header size charged to every message (bytes).
HEADER_BYTES = 64


class Message:
    """A point-to-point message.

    Attributes:
        src: sender process id.
        dst: destination process id.
        kind: protocol-defined string discriminator (e.g. ``"REQUEST"``).
        payload: protocol-defined content; must be treated as immutable by
            the receiver (the simulator passes references, it does not copy).
        size_bytes: wire size used by the network model (header included).
        send_time: virtual time the message was handed to the network
            (stamped by the simulator; excluded from equality).
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "send_time")

    def __init__(self, src: int, dst: int, kind: str, payload: Any = None,
                 size_bytes: int = HEADER_BYTES,
                 send_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes if size_bytes >= HEADER_BYTES \
            else HEADER_BYTES
        self.send_time = send_time

    def __reduce__(self) -> tuple:
        # The constructor tuple, not the default __slots__ state dict: a
        # sharded run pickles every cross-shard delivery, and this is a
        # quarter of the cost and three quarters of the bytes.
        return (Message, (self.src, self.dst, self.kind, self.payload,
                          self.size_bytes, self.send_time))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, "
                f"send_time={self.send_time!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.kind == other.kind and self.payload == other.payload
                and self.size_bytes == other.size_bytes)

    __hash__ = None  # type: ignore[assignment]  # mutable envelope


def sized(kind: str, src: int, dst: int, payload: Any, body_bytes: int) -> Message:
    """Build a message whose wire size is ``HEADER_BYTES + body_bytes``."""
    return Message(src=src, dst=dst, kind=kind, payload=payload,
                   size_bytes=HEADER_BYTES + max(0, int(body_bytes)))


__all__ = ["Message", "sized", "HEADER_BYTES"]
