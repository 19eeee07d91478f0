"""Framing and address helpers shared by every socket tier.

One frame is a 4-byte big-endian length prefix and one size-capped body::

    +----------------+--------------+
    | 4 bytes, ">I"  | encoded body |
    +----------------+--------------+

What the body *is* belongs to the tier: the cluster's coordinator/worker
boundary pickles (:data:`repro.cluster.protocol.PICKLE_CODEC` — both ends
are the same codebase started by the same user), the tenant-facing service
speaks JSON only (:mod:`repro.service.protocol`).  Neither tier imports the
other; both import this module, and so does the metrics endpoint for the
loopback test.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from typing import Any, Callable, Dict, NamedTuple, Optional

#: Upper bound for one message body — a corrupt length prefix must not
#: make the receiver allocate gigabytes.  Chunk payloads are engine-sized
#: (64 KiB by default), so 64 MiB is generous headroom, not a data cap.
MAX_MESSAGE_BYTES = 1 << 26

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Raised on malformed or oversized frames."""


class Codec(NamedTuple):
    """How one tier serializes a frame body (the framing itself is shared)."""

    encode: Callable[[Dict[str, Any]], bytes]
    decode: Callable[[bytes], Any]


def send_frame(sock: socket.socket, message: Dict[str, Any], codec: Codec) -> None:
    """Write one length-prefixed message, its body encoded by ``codec``."""
    payload = codec.encode(message)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte cap"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on EOF before the first byte."""
    pieces = []
    remaining = count
    while remaining:
        piece = sock.recv(remaining)
        if not piece:
            if remaining == count:
                return None  # clean EOF at a frame boundary
            raise ProtocolError("connection closed mid-frame")
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def recv_frame(sock: socket.socket, codec: Codec) -> Optional[Dict[str, Any]]:
    """Read one message; None on clean EOF (the peer closed the connection)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_MESSAGE_BYTES}-byte cap"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    message = codec.decode(payload)
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"malformed message: {type(message).__name__}")
    return message


def parse_address(address: str) -> "tuple[str, int]":
    """Parse a ``HOST:PORT`` string (the CLIs' --connect/--listen format)."""
    host, separator, port = address.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def is_loopback_host(host: str) -> bool:
    """True when ``host`` can only be reached from this machine.

    An empty host binds every interface, so it is *not* loopback.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False
