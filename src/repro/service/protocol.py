"""The client/daemon wire protocol of the service tier.

Framing is :mod:`repro.wire`'s — a 4-byte big-endian length prefix and one
size-capped **UTF-8 JSON** body, read and written by ``recv_frame`` and
``send_frame`` as on the cluster tier.  ``pash-serve`` is a *tenant-facing*
service with an advertised isolation model: every payload here is a dict of
strings, numbers, and lists, so JSON loses nothing and a malicious frame
can at worst be a parse error — answered as ``bad-request``, never
executed.  On top of the framing the service speaks request/response over
**keep-alive** connections (HTTP/1.1-like): the daemon answers a
connection's requests in order, one at a time, until the client closes it,
the daemon shuts down, or it sits idle for :data:`IDLE_TIMEOUT_SECONDS`.  A
malformed frame is answered ``bad-request`` and the connection closed — the
framing is lost.  Every connection has its own daemon thread, so a stalled
client can never wedge another tenant's traffic, and a one-shot client
(:func:`request`: connect, one request, close) is just a connection that
ends after its first reply.

Requests::

    SUBMIT   {script, tenant, files?, uploads?, refs?, stdin?, backend?, config?,
              wait?, timeout?}
    STATUS   {job_id}
    RESULT   {job_id, timeout?}          # blocks (bounded) until terminal
    CANCEL   {job_id}
    STATS    {}
    PING     {}
    SHUTDOWN {}

Responses::

    JOB   {job: {job_id, state, stdout?, files?, report?, ...}, dropped?}
    ERROR {code, message, job?, dropped?} # codes below; `job` on timeouts
    STATS {stats: {...}}
    PONG  {version, protocol, pid}
    OK    {}

A SUBMIT names a job's input files three ways (since protocol 5; the first
is all protocol 4 had, and still works alone):

* ``files``   ``{name: [line, ...]}`` — inline, used by this job only;
* ``uploads`` ``{digest: [line, ...]}`` — inline, and kept in this
  connection's upload store under ``digest``
  (:func:`repro.service.uploads.fingerprint` of the lines; the daemon
  recomputes it and answers ``bad-request`` on a mismatch);
* ``refs``    ``{name: digest}`` — the file ``name`` is the upload
  ``digest``, sent in this message's ``uploads`` or earlier on this
  connection.

Every SUBMIT reply that got past resolving these carries ``dropped`` (protocol
6), the digests the connection's store evicted while taking this request's
uploads.  A client holds every digest it uploaded until a reply names it
there, and sends a reference only once a reply on its connection carried
``dropped`` (so never to a protocol-4 or -5 daemon).  A reference the store
does not hold is answered ``unknown-upload`` before admission, the job never
admitted; a client that follows ``dropped`` never sees it, so it never
resends.  Uploads never outlive their connection (see
:mod:`repro.service.uploads`).

Every blocking path is bounded server-side by the daemon's
``max_wait_seconds`` — a client that asks to wait forever still gets a
typed ``timeout`` error (carrying the job snapshot) instead of a hang.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple, Union

from repro.service.admission import ServiceBusy, ServiceError
from repro.wire import MAX_MESSAGE_BYTES, ProtocolError, parse_address, recv_frame, send_frame

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "SERVICE_PROTOCOL_VERSION",
    "request",
    "raise_for_error",
]

#: Bumped on any incompatible message-shape change; reported by PING.
#: Version 2: the frame body switched from pickle to JSON.
#: Version 3: added the ``metrics`` request (Prometheus exposition +
#: registry snapshot) and a versioned ``schema`` field in STATS payloads.
#: Version 4: connections are keep-alive (many requests per connection).
#: Version 5: a SUBMIT may name a file its connection already uploaded by
#: digest (``uploads``/``refs``, the ``stored`` acknowledgement and the
#: ``unknown-upload`` code); ``files`` alone keeps working.
#: Version 6: a SUBMIT reply names the uploads the daemon evicted
#: (``dropped``) in place of the ones it stored.
SERVICE_PROTOCOL_VERSION = 6

#: How long the daemon keeps an idle connection open between requests.  A
#: client reuses a connection only while it has been idle for less than
#: half of this, so a request is never sent into a close already under way.
IDLE_TIMEOUT_SECONDS = 30.0

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
ERR_UNKNOWN_UPLOAD = "unknown-upload"  # a ref this connection's store does not hold
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
# Round trips
# ---------------------------------------------------------------------------


def connect(address: Address, timeout: Optional[float]) -> socket.socket:
    """Open a connection; its failure is the one ``unreachable`` (safe to retry)."""
    host, port = resolve_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServiceError(
            f"cannot reach pash-serve at {host}:{port}: {exc}",
            code=ERR_UNREACHABLE,
        ) from exc
    # Small request/reply frames: never hold one back waiting for an ACK.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def exchange(
    sock: socket.socket, message: Dict[str, Any], timeout: Optional[float]
) -> Dict[str, Any]:
    """Send ``message`` and read its one response, never past ``timeout``.

    A failure here is ``connection-lost``: the daemon may have executed the
    request, so it is not safe to retry blindly.
    """
    try:
        sock.settimeout(timeout)
        send_frame(sock, message)
        response = recv_frame(sock)
    except ProtocolError as exc:
        raise ServiceError(f"malformed response from pash-serve: {exc}") from exc
    except OSError as exc:
        raise ServiceError(
            f"connection to pash-serve lost mid-request: {exc}",
            code=ERR_CONNECTION_LOST,
        ) from exc
    if response is None:
        raise ServiceError(
            "pash-serve closed the connection without replying",
            code=ERR_CONNECTION_LOST,
        )
    return response


def request(
    address: Address,
    message: Dict[str, Any],
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One round trip on a connection of its own: connect, exchange, close."""
    with connect(address, timeout) as sock:
        return exchange(sock, message, timeout)


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
