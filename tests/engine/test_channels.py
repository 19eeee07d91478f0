"""Tests for the engine's OS-pipe channel layer."""

import os
import threading

import pytest

from repro.engine.channels import (
    Channel,
    ChannelError,
    ChannelReader,
    ChannelWriter,
    EagerPump,
    decode_block,
    encode_lines,
    iter_decoded_lines,
)


def pipe_round_trip(lines, chunk_size=64):
    """Write ``lines`` through a real pipe from a thread, read them back."""
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()

    def produce():
        writer.write_lines(lines)
        writer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    received = channel.reader().read_lines()
    producer.join()
    return received, writer


def test_round_trip_small():
    lines = ["alpha", "beta", "gamma"]
    received, _ = pipe_round_trip(lines)
    assert received == lines


def test_round_trip_empty_stream():
    received, writer = pipe_round_trip([])
    assert received == []
    assert writer.bytes_written == 0


def test_round_trip_crosses_chunk_boundaries():
    lines = [f"line-{index:06d}-" + "x" * 37 for index in range(5000)]
    received, writer = pipe_round_trip(lines, chunk_size=256)
    assert received == lines
    assert writer.bytes_written == sum(len(line) + 1 for line in lines)
    assert writer.lines_written == len(lines)


def test_round_trip_preserves_empty_and_unicode_lines():
    lines = ["", "héllo wörld", "", "tab\tseparated", "naïve £5"]
    received, _ = pipe_round_trip(lines)
    assert received == lines


def test_reader_counts_bytes():
    channel = Channel(chunk_size=16)
    writer = channel.writer()
    reader = channel.reader()
    writer.write_lines(["abc", "defg"])
    writer.close()
    assert reader.read_lines() == ["abc", "defg"]
    assert reader.bytes_read == len("abc\ndefg\n")
    assert reader.lines_read == 2


def test_write_after_close_raises():
    channel = Channel()
    writer = channel.writer()
    channel_reader = channel.reader()
    writer.close()
    with pytest.raises(ChannelError):
        writer.write_lines(["late"])
    assert channel_reader.read_lines() == []


def test_encode_decode_inverse():
    lines = ["a", "", "b c", "déjà"]
    assert decode_block(encode_lines(lines)) == lines
    assert decode_block(b"") == []
    assert decode_block(b"no-trailing-newline") == ["no-trailing-newline"]


def test_eager_pump_drains_concurrently():
    """The pump consumes far more than a pipe buffer while we are not reading."""
    lines = ["y" * 200 for _ in range(10_000)]  # ~2 MB >> 64 KB pipe capacity
    channel = Channel()
    pump = EagerPump(channel.reader())
    pump.start()
    writer = channel.writer()
    # Without the pump this write would block forever on the full pipe.
    writer.write_lines(lines)
    writer.close()
    assert list(iter_decoded_lines(pump.iter_chunks())) == lines


def test_channel_close_is_idempotent():
    channel = Channel()
    channel.close()
    channel.close()


def test_broken_pipe_surfaces_to_writer():
    channel = Channel()
    os.close(channel.read_fd)
    writer = channel.writer()
    with pytest.raises(BrokenPipeError):
        writer.write_lines(["x" * (1 << 20)])
        writer.close()
    writer.abandon()
