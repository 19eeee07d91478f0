"""The client/daemon wire protocol of the service tier.

Framing is :mod:`repro.wire`'s — a 4-byte big-endian length prefix and one
size-capped frame (``send_frame``/``recv_frame``) — and the body codec is
**UTF-8 JSON, not pickle**.  The cluster tier can justify pickle because
both endpoints are the same codebase started by the same user (an internal
process boundary);
``pash-serve`` is a *tenant-facing* service with an advertised isolation
model, and unpickling client bytes would hand any connecting client
arbitrary code execution in the daemon.  Every payload here is a dict of
strings, numbers, and lists, so JSON loses nothing and a malicious frame
can at worst be a parse error — answered as ``bad-request``, never
executed.  On top of the framing the service speaks a one-shot
request/response shape (one connection per request, HTTP-like), which keeps
the daemon's concurrency model trivial: every accepted connection is read
once, answered once, and closed, so a stalled client can never wedge
another tenant's traffic.

Requests::

    SUBMIT   {script, tenant, files?, stdin?, backend?, config?, wait?, timeout?}
    STATUS   {job_id}
    RESULT   {job_id, timeout?}          # blocks (bounded) until terminal
    CANCEL   {job_id}
    STATS    {}
    PING     {}
    SHUTDOWN {}

Responses::

    JOB   {job: {job_id, state, stdout?, files?, report?, ...}}
    ERROR {code, message, job?}          # codes below; `job` on timeouts
    STATS {stats: {...}}
    PONG  {version, protocol, pid}
    OK    {}

Every blocking path is bounded server-side by the daemon's
``max_wait_seconds`` — a client that asks to wait forever still gets a
typed ``timeout`` error (carrying the job snapshot) instead of a hang.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional, Tuple, Union

from repro.service.admission import ServiceBusy, ServiceError
from repro.wire import (
    MAX_MESSAGE_BYTES,
    Codec,
    ProtocolError,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "SERVICE_PROTOCOL_VERSION",
    "recv_json_message",
    "request",
    "raise_for_error",
    "send_json_message",
]

#: Bumped on any incompatible message-shape change; reported by PING.
#: Version 2: the frame body switched from pickle to JSON.
#: Version 3: added the ``metrics`` request (Prometheus exposition +
#: registry snapshot) and a versioned ``schema`` field in STATS payloads.
SERVICE_PROTOCOL_VERSION = 3

# -- request types -----------------------------------------------------------
MSG_SUBMIT = "submit"
MSG_STATUS = "status"
MSG_RESULT = "result"
MSG_CANCEL = "cancel"
MSG_STATS = "stats"
MSG_METRICS = "metrics"
MSG_PING = "ping"
MSG_SHUTDOWN = "shutdown"

# -- response types ----------------------------------------------------------
MSG_JOB = "job"
MSG_ERROR = "error"
MSG_STATS_REPLY = "stats-reply"
MSG_METRICS_REPLY = "metrics-reply"
MSG_PONG = "pong"
MSG_OK = "ok"

# -- error codes -------------------------------------------------------------
ERR_BUSY = "busy"  # run queue full (admission)
ERR_QUOTA = "quota"  # tenant at quota (admission)
ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_JOB = "unknown-job"
ERR_TIMEOUT = "timeout"  # bounded wait elapsed; job still in flight
ERR_SHUTTING_DOWN = "shutting-down"
ERR_EXECUTION = "execution"  # the script itself failed
ERR_INTERNAL = "internal"

# Client-side codes (never sent by the daemon).  The distinction matters
# for retries: an ``unreachable`` failure is provably pre-send (the TCP
# connect itself failed), so resubmitting is safe; ``connection-lost``
# means the request may already have reached the daemon and executed, so a
# blind retry could run a submission twice.
ERR_UNREACHABLE = "unreachable"
ERR_CONNECTION_LOST = "connection-lost"

#: Admission codes map back to :class:`ServiceBusy` client-side.
BUSY_CODES = frozenset({ERR_BUSY, ERR_QUOTA})

Address = Union[str, Tuple[str, int]]


def resolve_address(address: Address) -> Tuple[str, int]:
    """Accept ``"HOST:PORT"`` or an ``(host, port)`` pair."""
    if isinstance(address, str):
        return parse_address(address)
    host, port = address
    return host, int(port)


# ---------------------------------------------------------------------------
# JSON framing
# ---------------------------------------------------------------------------


def _encode_json(message: Dict[str, Any]) -> bytes:
    try:
        return json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc


def _decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc


_JSON_CODEC = Codec(encode=_encode_json, decode=_decode_json)


def send_json_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed UTF-8 JSON message."""
    send_frame(sock, message, _JSON_CODEC)


def recv_json_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message; None on clean EOF (the peer closed the connection).

    The body is parsed as JSON only — a frame that is not valid JSON (for
    example a pickle, or random bytes) raises :class:`ProtocolError` and is
    never evaluated.
    """
    return recv_frame(sock, _JSON_CODEC)


# ---------------------------------------------------------------------------
# One-shot requests
# ---------------------------------------------------------------------------


def request(
    address: Address,
    message: Dict[str, Any],
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One round trip: connect, send ``message``, read one response, close.

    Raises :class:`ServiceError` with code ``unreachable`` only when the
    *connect* itself fails (the request provably never left this process —
    safe to retry), and ``connection-lost`` when the connection dies after
    that (the daemon may have executed the request — not safe to retry
    blindly).  Never returns ``None`` and never blocks past ``timeout``.
    """
    host, port = resolve_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServiceError(
            f"cannot reach pash-serve at {host}:{port}: {exc}",
            code=ERR_UNREACHABLE,
        ) from exc
    try:
        with sock:
            sock.settimeout(timeout)
            send_json_message(sock, message)
            response = recv_json_message(sock)
    except ProtocolError as exc:
        raise ServiceError(f"malformed response from {host}:{port}: {exc}") from exc
    except OSError as exc:
        raise ServiceError(
            f"connection to pash-serve at {host}:{port} lost mid-request: {exc}",
            code=ERR_CONNECTION_LOST,
        ) from exc
    if response is None:
        raise ServiceError(
            f"pash-serve at {host}:{port} closed the connection without replying",
            code=ERR_CONNECTION_LOST,
        )
    return response


def error_response(
    code: str, message: str, job: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"type": MSG_ERROR, "code": code, "message": message}
    if job is not None:
        response["job"] = job
    return response


def raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    """Map an ERROR response to the matching typed exception; pass the rest."""
    if response.get("type") != MSG_ERROR:
        return response
    code = response.get("code", "error")
    message = response.get("message", "service error")
    if code in BUSY_CODES:
        raise ServiceBusy(message, code=code)
    raise ServiceError(message, code=code)
