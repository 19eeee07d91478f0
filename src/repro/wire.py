"""Framing and address helpers shared by every socket tier.

One frame is a 4-byte big-endian length prefix and one size-capped body.  A
message body is UTF-8 JSON on every tier: the tenant-facing service and the
cluster's coordinator/worker link call the same :func:`send_frame` and
:func:`recv_frame`, and a body that is not JSON — a serialised Python
object, random bytes — is a :class:`ProtocolError`, never evaluated.  Bulk
bytes do not ride in JSON: a message may be followed by one raw frame
(``send_frame(sock, message, data)``, read back by :func:`recv_bytes`), as
each block of a cluster edge stream is.
"""

from __future__ import annotations

import ipaddress
import json
import socket
import struct
from typing import Any, Dict, Optional

#: Upper bound for one message body — a corrupt length prefix must not
#: make the receiver allocate gigabytes.  Chunk payloads are engine-sized
#: (64 KiB by default), so 64 MiB is generous headroom, not a data cap.
MAX_MESSAGE_BYTES = 1 << 26

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Raised on malformed or oversized frames."""


def _prefix(length: int) -> bytes:
    """The length prefix of a ``length``-byte body; a body past the cap is refused."""
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"a frame of {length} bytes exceeds the {MAX_MESSAGE_BYTES}-byte cap")
    return _HEADER.pack(length)


def send_frame(sock: socket.socket, message: Dict[str, Any], data: Optional[bytes] = None) -> None:
    """Write one JSON message and, when ``data`` is given, one raw frame after it.

    ``data`` goes out by a ``sendall`` of its own, never copied; a caller
    sharing ``sock`` holds its lock across the call, so nothing lands between.
    """
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    sock.sendall(_prefix(len(payload)) + payload + (b"" if data is None else _prefix(len(data))))
    if data is not None:
        sock.sendall(data)


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


def _recv_body(sock: socket.socket) -> Optional[bytes]:
    """One frame's body; None on clean EOF before its length prefix."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _prefix(length)  # a length past the cap is refused before anything is read
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return payload


def recv_bytes(sock: socket.socket) -> bytes:
    """Read the raw frame that follows a message sent with ``data``."""
    payload = _recv_body(sock)
    if payload is None:
        raise ProtocolError("connection closed before a message's bytes")
    return payload


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one JSON message; None on clean EOF.  Its body is parsed, never evaluated."""
    payload = _recv_body(sock)
    if payload is None:
        return None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
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
