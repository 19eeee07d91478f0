"""Wire-protocol unit tests: framing, EOF semantics, edge streams."""

import socket
import struct
import threading

import pytest

from repro.cluster.protocol import (
    MSG_CHUNK,
    MSG_EDGE_END,
    MessageSocket,
    send_edge_stream,
)
from repro.wire import MAX_MESSAGE_BYTES, ProtocolError, parse_address, recv_frame, send_frame


def make_pair():
    left, right = socket.socketpair()
    return left, right


def test_message_roundtrip():
    left, right = make_pair()
    try:
        send_frame(left, {"type": "task", "task_id": 7, "payload": ["a", "b"]})
        message = recv_frame(right)
        assert message == {"type": "task", "task_id": 7, "payload": ["a", "b"]}
    finally:
        left.close()
        right.close()


def test_clean_eof_returns_none():
    left, right = make_pair()
    left.close()
    try:
        assert recv_frame(right) is None
    finally:
        right.close()


def test_eof_mid_frame_raises():
    left, right = make_pair()
    try:
        # A length prefix promising bytes that never arrive.
        left.sendall(b"\x00\x00\x00\x10abc")
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_oversized_length_prefix_rejected_without_allocation():
    left, right = make_pair()
    try:
        left.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_non_dict_payload_rejected():
    left, right = make_pair()
    try:
        payload = b'["not", "a", "dict"]'
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_a_body_nested_past_the_parser_is_a_protocol_error():
    left, right = make_pair()
    body = b"[" * 200_000 + b"]" * 200_000
    sender = threading.Thread(target=left.sendall, args=(struct.pack(">I", len(body)) + body,))
    sender.start()
    try:
        with pytest.raises(ProtocolError):
            recv_frame(right)
        sender.join(timeout=10.0)
        assert not sender.is_alive()
    finally:
        left.close()
        right.close()


def test_edge_stream_roundtrip():
    left, right = make_pair()
    channel = MessageSocket(left)
    try:
        frames = [b"alpha\nbeta\n", b"gamma\n"]
        sender = threading.Thread(
            target=send_edge_stream, args=(channel, 3, 11, frames)
        )
        sender.start()
        received = []
        receiver = MessageSocket(right)
        while True:
            message = receiver.recv()
            assert message["task_id"] == 3
            assert message["edge_id"] == 11
            if message["type"] == MSG_EDGE_END:
                break
            assert message["type"] == MSG_CHUNK
            received.append(message["data"])
        sender.join()
        assert received == frames
    finally:
        channel.close()
        right.close()


def test_a_chunk_is_a_json_header_then_one_raw_frame():
    """The block is not in the JSON: a plain frame reader sees the header, then bytes."""
    left, right = make_pair()
    try:
        send_edge_stream(MessageSocket(left), 3, 11, [b"\xe9\x00raw\n"])
        assert recv_frame(right) == {"type": MSG_CHUNK, "task_id": 3, "edge_id": 11}
        (length,) = struct.unpack(">I", right.recv(4))
        assert right.recv(length) == b"\xe9\x00raw\n"
        assert recv_frame(right)["type"] == MSG_EDGE_END
    finally:
        left.close()
        right.close()


def test_a_heartbeat_never_lands_between_a_header_and_its_block():
    left, right = make_pair()
    channel = MessageSocket(left)
    blocks = [bytes([65 + index % 26]) * 4096 for index in range(200)]

    def beat():
        for _ in range(200):
            channel.send({"type": "heartbeat"})

    threads = [threading.Thread(target=send_edge_stream, args=(channel, 1, 2, blocks)),
               threading.Thread(target=beat)]
    for thread in threads:
        thread.start()
    try:
        receiver, received = MessageSocket(right), []
        while True:
            message = receiver.recv()
            if message["type"] == MSG_EDGE_END:
                break
            if message["type"] == MSG_CHUNK:
                received.append(message["data"])
        for thread in threads:
            thread.join()
        assert received == blocks
    finally:
        channel.close()
        right.close()


def test_a_stored_edge_is_cut_into_frames_of_chunk_size(tmp_path):
    from repro.engine.channels import StoredStream

    path = tmp_path / "edge.spill"
    path.write_bytes(b"x" * 10)
    assert list(StoredStream(path=str(path)).blocks(4)) == [b"xxxx", b"xxxx", b"xx"]
    assert list(StoredStream(b"yyyyy").blocks(4)) == [b"yyyy", b"y"]


def test_parse_address():
    assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
    assert parse_address("host.example:80") == ("host.example", 80)
    for bad in ("no-port", ":80", "host:", "host:abc"):
        with pytest.raises(ValueError):
            parse_address(bad)


# ---------------------------------------------------------------------------
# Hostile input: a pickle is refused, never loaded
# ---------------------------------------------------------------------------


class _Marker:
    """Loading a pickle of this creates ``path``: code run by the loader."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def hostile_frame(marker, message):
    import pickle

    body = pickle.dumps(dict(message, payload=_Marker(marker)))
    return struct.pack(">I", len(body)) + body


def test_the_coordinator_refuses_a_pickled_register(tmp_path):
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.protocol import MSG_REGISTER, PROTOCOL_VERSION

    marker = tmp_path / "marker"
    coordinator = ClusterCoordinator()
    peer, served = socket.socketpair()
    try:
        peer.sendall(hostile_frame(marker, {"type": MSG_REGISTER, "version": PROTOCOL_VERSION}))
        coordinator._register(served)
        assert coordinator.workers == []
        assert peer.recv(1) == b""  # closed without a WELCOME
    finally:
        peer.close()
        coordinator.shutdown()
    assert not marker.exists()


@pytest.mark.parametrize("stage", ["welcome", "task"])
def test_a_worker_refuses_a_pickled_frame(stage, tmp_path):
    from repro.cluster.protocol import MSG_REGISTER, MSG_TASK, MSG_WELCOME
    from repro.cluster.worker import run_worker

    marker = tmp_path / "marker"
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    exit_codes = []
    worker = threading.Thread(target=lambda: exit_codes.append(run_worker(f"{host}:{port}", 5.0)))
    worker.start()
    try:
        listener.settimeout(10.0)
        connection, _ = listener.accept()
        with connection:
            assert recv_frame(connection)["type"] == MSG_REGISTER
            if stage == "task":
                send_frame(connection, {"type": MSG_WELCOME, "heartbeat_interval": 5.0})
            message = {"type": MSG_WELCOME if stage == "welcome" else MSG_TASK, "task_id": 1}
            connection.sendall(hostile_frame(marker, message))
            worker.join(timeout=10.0)
    finally:
        listener.close()
    assert exit_codes == [1]
    assert not marker.exists()
