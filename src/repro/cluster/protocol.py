"""The coordinator/worker wire protocol.

Every message is one :mod:`repro.wire` frame (4-byte length prefix, size
cap) whose body is a pickled dict.

Control messages (REGISTER, WELCOME, TASK, RESULT, HEARTBEAT, SHUTDOWN)
are small dicts; bulk data never rides inside them.  Cross-host DFG edges
travel instead as a sequence of CHUNK messages whose ``data`` payloads are
the pieces of a :class:`repro.engine.channels.StoredStream`
(newline-delimited UTF-8, cut by :meth:`StoredStream.blocks`), terminated by
one EDGE_END — so the cluster data plane reuses the engine's framing rather
than inventing a second one.  Each side appends the pieces it receives to a
:class:`~repro.engine.channels.SpillBuffer` and hands that off as the edge's
stored stream, so a stream moves in bounded memory on both sides of the
socket and is never decoded on the way.

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

Pickle is safe here in the same sense as the worker pool's plan queue: both
endpoints are the same codebase, started by the same user, on an address the
user chose — the protocol is an internal process boundary, not a public
network service.
"""

from __future__ import annotations

import pickle
import socket
import threading
from typing import Any, Dict, Iterable, Optional

from repro.wire import Codec, recv_frame, send_frame

#: Bumped on any incompatible message-shape change; checked at registration.
#: Version 2: no ACK after a commit, and REGISTER, WELCOME and HEARTBEAT
#: carry only what their receiver reads.
PROTOCOL_VERSION = 2

# -- message types -----------------------------------------------------------
MSG_REGISTER = "register"  # worker -> coordinator: {version}
MSG_WELCOME = "welcome"  # coordinator -> worker: {heartbeat_interval}
MSG_HEARTBEAT = "heartbeat"  # worker -> coordinator: liveness beacon
MSG_TASK = "task"  # coordinator -> worker: one pickled node plan
MSG_CHUNK = "chunk"  # either direction: one framed byte chunk of an edge
MSG_EDGE_END = "edge-end"  # either direction: the edge's stream is complete
MSG_RESULT = "result"  # worker -> coordinator: the node's execution report
MSG_SHUTDOWN = "shutdown"  # coordinator -> worker: exit cleanly

PICKLE_CODEC = Codec(
    encode=lambda message: pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL),
    decode=pickle.loads,
)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed pickled message."""
    send_frame(sock, message, PICKLE_CODEC)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one pickled message; None on clean EOF."""
    return recv_frame(sock, PICKLE_CODEC)


class MessageSocket:
    """One protocol endpoint: locked sends, single-reader receives.

    The send lock lets a worker's heartbeat thread interleave safely with
    task-result streaming on the same connection; receiving stays
    single-threaded by construction (one receiver loop per connection).
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        with self._send_lock:
            send_message(self.sock, message)

    def recv(self) -> Optional[Dict[str, Any]]:
        return recv_message(self.sock)

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
    for frame in frames:
        if not frame:
            continue
        channel.send(
            {"type": MSG_CHUNK, "task_id": task_id, "edge_id": edge_id, "data": frame}
        )
    channel.send({"type": MSG_EDGE_END, "task_id": task_id, "edge_id": edge_id})
