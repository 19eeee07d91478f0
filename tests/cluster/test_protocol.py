"""Wire-protocol unit tests: framing, EOF semantics, edge streams."""

import socket
import threading

import pytest

from repro.cluster.protocol import (
    MSG_CHUNK,
    MSG_EDGE_END,
    MessageSocket,
    recv_message,
    send_edge_stream,
    send_message,
)
from repro.wire import MAX_MESSAGE_BYTES, ProtocolError, parse_address


def make_pair():
    left, right = socket.socketpair()
    return left, right


def test_message_roundtrip():
    left, right = make_pair()
    try:
        send_message(left, {"type": "task", "task_id": 7, "payload": ["a", "b"]})
        message = recv_message(right)
        assert message == {"type": "task", "task_id": 7, "payload": ["a", "b"]}
    finally:
        left.close()
        right.close()


def test_clean_eof_returns_none():
    left, right = make_pair()
    left.close()
    try:
        assert recv_message(right) is None
    finally:
        right.close()


def test_eof_mid_frame_raises():
    left, right = make_pair()
    try:
        # A length prefix promising bytes that never arrive.
        left.sendall(b"\x00\x00\x00\x10abc")
        left.close()
        with pytest.raises(ProtocolError):
            recv_message(right)
    finally:
        right.close()


def test_oversized_length_prefix_rejected_without_allocation():
    left, right = make_pair()
    try:
        left.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_message(right)
    finally:
        left.close()
        right.close()


def test_non_dict_payload_rejected():
    import pickle
    import struct

    left, right = make_pair()
    try:
        payload = pickle.dumps(["not", "a", "dict"])
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_message(right)
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
        while True:
            message = recv_message(right)
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
