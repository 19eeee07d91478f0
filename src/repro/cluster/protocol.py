"""The coordinator/worker wire protocol.

Every message is one :mod:`repro.wire` JSON frame, sent and read by the same
functions as the service tier's, so a peer that sends anything else (a
serialised Python object, random bytes) is refused at its first frame and
nothing it sent is evaluated.  Control messages are small dicts: a TASK
carries its node's JSON form (:mod:`repro.dfg.json_form`), the trace parent
id and the fault plan's ``to_dict()``, a RESULT the node's report with its
spans as ``SpanRecord.to_dict()`` rows.  Bulk data never rides in them: an
edge travels as CHUNKs — a JSON header and then one raw frame holding one
block of its :class:`~repro.engine.channels.StoredStream` — ended by one
EDGE_END.  Each side appends the blocks to a
:class:`~repro.engine.channels.SpillBuffer`, so a stream moves in bounded
memory on both sides of the socket and is never decoded on the way.

Message flow for one worker and one task::

    coordinator                                worker
        <-  REGISTER {version}
        WELCOME {heartbeat_interval}                ->
        <-  HEARTBEAT {}  (every heartbeat_interval, from its own thread)
        TASK {task_id, node, inputs, outputs, ...}  ->
        CHUNK* / EDGE_END per input edge            ->
                                                    (executes the node)
        <-  CHUNK* / EDGE_END per output edge
        <-  RESULT {task_id, report}           (the coordinator commits)
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Iterable, Optional

from repro.wire import recv_bytes, recv_frame, send_frame

#: Bumped on any incompatible message-shape change; checked at registration.
#: Version 2: no ACK after a commit, and REGISTER, WELCOME and HEARTBEAT
#: carry only what their receiver reads.  Version 3: JSON bodies, a TASK's
#: node in its JSON form, and a CHUNK's block in a raw frame of its own.
PROTOCOL_VERSION = 3

# -- message types -----------------------------------------------------------
MSG_REGISTER = "register"  # worker -> coordinator: {version}
MSG_WELCOME = "welcome"  # coordinator -> worker: {heartbeat_interval}
MSG_HEARTBEAT = "heartbeat"  # worker -> coordinator: liveness beacon
MSG_TASK = "task"  # coordinator -> worker: one node, in its JSON form
MSG_CHUNK = "chunk"  # either direction: a header, then one raw block of an edge
MSG_EDGE_END = "edge-end"  # either direction: the edge's stream is complete
MSG_RESULT = "result"  # worker -> coordinator: the node's execution report
MSG_SHUTDOWN = "shutdown"  # coordinator -> worker: exit cleanly


class MessageSocket:
    """One protocol endpoint: locked sends, single-reader receives.

    The send lock lets a worker's heartbeat thread interleave safely with
    task-result streaming on the same connection — a CHUNK's two frames go
    out under one hold of it; receiving stays single-threaded by
    construction (one receiver loop per connection).  A received CHUNK
    carries its block as ``bytes`` under ``"data"``.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any], data: Optional[bytes] = None) -> None:
        with self._send_lock:
            send_frame(self.sock, message, data)

    def recv(self) -> Optional[Dict[str, Any]]:
        message = recv_frame(self.sock)
        if message is not None and message["type"] == MSG_CHUNK:
            message["data"] = recv_bytes(self.sock)
        return message

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def send_edge_stream(
    channel: MessageSocket, task_id: int, edge_id: int, frames: Iterable[bytes]
) -> None:
    """Stream one edge as CHUNK messages terminated by EDGE_END."""
    header = {"type": MSG_CHUNK, "task_id": task_id, "edge_id": edge_id}
    for frame in frames:
        if frame:
            channel.send(header, frame)
    channel.send({"type": MSG_EDGE_END, "task_id": task_id, "edge_id": edge_id})
