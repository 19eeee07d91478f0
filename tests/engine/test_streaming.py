"""Bounded-memory streaming: chunked iteration, UTF-8 boundaries, spill.

Covers the hot-path invariants the engine's data plane now guarantees:

* incremental line decoding is exact even when multi-byte UTF-8 sequences
  are split across chunk boundaries (every chunk size, including 1 byte);
* spill-to-disk buffers round-trip streams bit-for-bit while keeping their
  in-memory window under the configured high-water mark;
* degenerate streams (0 bytes, no trailing newline) behave like the
  interpreter's line model end-to-end;
* the three backends stay byte-identical with streaming knobs turned all
  the way down (tiny chunks, tiny spill thresholds).
"""

import os
import threading

import pytest

from repro import api, engine
from repro.api import PashConfig, StreamingConfig
from repro.engine.channels import (
    Channel,
    EagerPump,
    SpillBuffer,
    decode_block,
    encode_lines,
    iter_decoded_lines,
    iter_encoded_chunks,
)
from repro.runtime.eager import EagerBuffer, relay
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem

UNICODE_LINES = ["héllo wörld", "", "naïve £5 — ✓", "漢字テスト", "emoji 🎉🎊", "plain"]


# ---------------------------------------------------------------------------
# Incremental decoding across chunk boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 64])
def test_iter_decoded_lines_survives_multibyte_chunk_splits(chunk_size):
    """Re-chunking the framed bytes at any granularity must not corrupt UTF-8."""
    payload = encode_lines(UNICODE_LINES)
    chunks = [payload[i : i + chunk_size] for i in range(0, len(payload), chunk_size)]
    assert list(iter_decoded_lines(chunks)) == UNICODE_LINES


def test_iter_decoded_lines_empty_and_no_trailing_newline():
    assert list(iter_decoded_lines([])) == []
    assert list(iter_decoded_lines([b""])) == []
    assert list(iter_decoded_lines([b"no-newline"])) == ["no-newline"]
    # A multi-byte char split across the final boundary, newline missing.
    tail = "café".encode("utf-8")
    assert list(iter_decoded_lines([b"a\n" + tail[:3], tail[3:]])) == ["a", "café"]


def test_iter_encoded_chunks_inverse_and_bounded():
    lines = [f"line-{i}-é" for i in range(500)]
    chunks = list(iter_encoded_chunks(lines, chunk_size=64))
    assert b"".join(chunks) == encode_lines(lines)
    # Each chunk is one framing unit plus at most one overhanging line.
    assert all(len(chunk) <= 64 + max(len(l.encode()) + 1 for l in lines) for chunk in chunks)
    assert list(iter_encoded_chunks([], chunk_size=64)) == []


@pytest.mark.parametrize("chunk_size", [3, 5, 17])
def test_pipe_round_trip_with_multibyte_lines_and_tiny_chunks(chunk_size):
    """A real OS pipe re-chunks arbitrarily; decoding must stay exact."""
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()

    def produce():
        writer.write_lines(UNICODE_LINES)
        writer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    received = list(channel.reader().iter_lines())
    producer.join()
    assert received == UNICODE_LINES


# ---------------------------------------------------------------------------
# SpillBuffer: bounded memory, ordered spill/restore
# ---------------------------------------------------------------------------


def test_spill_buffer_round_trips_in_order_and_stays_bounded():
    buffer = SpillBuffer(spill_threshold=256)
    chunks = [f"chunk-{i:04d}-".encode() * 8 for i in range(200)]  # ~100 B each
    for chunk in chunks:
        buffer.append(chunk)
    buffer.close()
    assert buffer.peak_buffered_bytes <= 256
    assert buffer.spilled_bytes > 0
    assert buffer.spill_events > 0
    assert b"".join(iter(buffer)) == b"".join(chunks)


def test_spill_buffer_zero_threshold_spills_everything():
    buffer = SpillBuffer(spill_threshold=0)
    buffer.append(b"abc")
    buffer.append(b"def")
    buffer.close()
    assert buffer.peak_buffered_bytes == 0
    assert buffer.spilled_bytes == 6
    assert list(buffer) == [b"abc", b"def"]


def test_spill_buffer_interleaved_producer_consumer():
    """Memory stays bounded while a slow consumer trails a fast producer."""
    buffer = SpillBuffer(spill_threshold=128)
    chunks = [bytes([65 + (i % 26)]) * 50 for i in range(100)]

    def produce():
        for chunk in chunks:
            buffer.append(chunk)
        buffer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    received = b"".join(iter(buffer))
    producer.join()
    assert received == b"".join(chunks)
    assert buffer.peak_buffered_bytes <= 128


def test_spill_buffer_empty_stream():
    buffer = SpillBuffer(spill_threshold=16)
    buffer.close()
    assert list(buffer) == []
    assert buffer.spilled_bytes == 0


# ---------------------------------------------------------------------------
# EagerPump over a real pipe
# ---------------------------------------------------------------------------


def test_eager_pump_spills_past_threshold_and_restores():
    lines = ["y" * 200 for _ in range(5_000)]  # ~1 MB
    channel = Channel()
    pump = EagerPump(channel.reader(), spill_threshold=4096)
    pump.start()
    writer = channel.writer()
    # Without the pump this write would block forever on the full pipe —
    # and with an unbounded pump it would all sit in memory.
    writer.write_lines(lines)
    writer.close()
    assert list(iter_decoded_lines(pump.iter_chunks())) == lines
    assert pump.peak_buffered_bytes <= 4096
    assert pump.spilled_bytes > 0


def test_eager_pump_streaming_consumption():
    """iter_chunks consumes concurrently with the pump thread."""
    lines = [f"row {i} é" for i in range(2_000)]
    channel = Channel(chunk_size=128)
    pump = EagerPump(channel.reader(), spill_threshold=512)
    pump.start()
    writer = channel.writer()
    writer.write_lines(lines)
    writer.close()
    assert list(iter_decoded_lines(pump.iter_chunks())) == lines


# ---------------------------------------------------------------------------
# EagerBuffer (in-process relay) spill round-trip
# ---------------------------------------------------------------------------


def test_eager_buffer_spill_round_trip():
    lines = [f"line-{i}-ü" for i in range(1_000)]
    buffer = EagerBuffer(mode="eager", spill_threshold=512)
    buffer.write_all(lines)
    buffer.close()
    assert buffer.peak_buffered_bytes <= 512
    assert buffer.spilled_bytes > 0
    assert buffer.drain() == lines


def test_relay_identity_holds_with_spill():
    lines = UNICODE_LINES * 50
    assert relay(lines, spill_threshold=64) == lines
    assert relay([], spill_threshold=64) == []


def test_eager_buffer_blocking_mode_with_spill():
    buffer = EagerBuffer(mode="blocking", spill_threshold=32)
    buffer.write_all(["a" * 64, "b" * 64])
    assert buffer.read() is None  # nothing readable before close
    buffer.close()
    assert buffer.drain() == ["a" * 64, "b" * 64]


# ---------------------------------------------------------------------------
# End-to-end: engine streams real files, degenerate framings included
# ---------------------------------------------------------------------------


def _disk_environment():
    return ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))


@pytest.mark.parametrize(
    "payload,expected",
    [
        (b"", []),
        (b"solo", ["solo"]),  # no trailing newline
        (b"a\nb\nc\n", ["a", "b", "c"]),
        (b"a\nb", ["a", "b"]),  # newline missing on the final line
        ("é漢\n🎉\n".encode("utf-8"), ["é漢", "🎉"]),
        # \r and \f are line *content* under the stream model's \n framing;
        # both backends must agree (str.splitlines would split them).
        (b"a\rb\nsecond\x0cpart\n", ["a\rb", "second\x0cpart"]),
    ],
)
def test_parallel_backend_streams_real_files(tmp_path, payload, expected):
    """Graph-input files stream from disk in the worker, byte-exact."""
    path = tmp_path / "input.txt"
    path.write_bytes(payload)
    script = f"cat {path} | grep ''"
    config = PashConfig(width=1, streaming=StreamingConfig(chunk_size=3, spill_threshold=8))

    sequential = api.run(script, backend="interpreter", environment=_disk_environment())
    parallel = api.run(
        script, config=config, backend="parallel", environment=_disk_environment()
    )
    assert parallel.stdout == sequential.stdout == expected


def test_cat_of_unterminated_file_does_not_merge_lines(tmp_path):
    """`cat a b` must keep a's unterminated last line separate from b."""
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    first.write_bytes(b"alpha\nbeta")  # no trailing newline
    second.write_bytes(b"gamma\n")
    script = f"cat {first} {second}"
    config = PashConfig(width=1, streaming=StreamingConfig(chunk_size=4))

    sequential = api.run(script, backend="interpreter", environment=_disk_environment())
    parallel = api.run(
        script, config=config, backend="parallel", environment=_disk_environment()
    )
    assert parallel.stdout == sequential.stdout == ["alpha", "beta", "gamma"]


def test_large_graph_output_travels_through_spill_file():
    """Graph outputs past the spill threshold go via disk, not the queue."""
    lines = [f"record {i:05d}" for i in range(3_000)]  # ~39 KB framed
    env = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": lines}))
    config = PashConfig(width=1, streaming=StreamingConfig(spill_threshold=1024))

    result = api.run(
        "cat in.txt | grep record > out.txt",
        config=config,
        backend="parallel",
        environment=env,
    )
    assert result.output_of("out.txt") == lines
    assert result.metrics.total_spilled_bytes > 0
    assert result.metrics.peak_buffered_bytes <= 1024


def test_spill_metrics_surface_per_node():
    lines = ["z" * 100 for _ in range(2_000)]
    env = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": lines}))
    config = PashConfig(width=1, streaming=StreamingConfig(spill_threshold=2048))
    result = api.run(
        "cat in.txt | sort > out.txt", config=config, backend="parallel", environment=env
    )
    assert result.output_of("out.txt") == sorted(lines)
    by_label = {node.label: node for node in result.metrics.nodes}
    # sort materializes, so its eager pump must have absorbed (and spilled)
    # the whole stream while staying under the in-memory bound.
    assert by_label["sort"].spilled_bytes > 0
    assert by_label["sort"].peak_buffered_bytes <= 2048
    assert "spilled" in result.metrics.summary()


# ---------------------------------------------------------------------------
# Cross-backend equivalence with streaming knobs turned all the way down
# ---------------------------------------------------------------------------


CROSS_BACKEND_SCRIPT = "cat in1.txt in2.txt | tr A-Z a-z | grep light | sort > out.txt"


def _cross_env():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(
            {
                "in1.txt": ["Hello LIGHT", "dark matter", "light émitter", ""],
                "in2.txt": ["LIGHT speed", "héavy", "light"],
            }
        )
    )


@pytest.mark.parametrize("width", [2, 4])
def test_backends_identical_with_aggressive_streaming(width):
    config = PashConfig.paper_default(
        width, streaming=StreamingConfig(chunk_size=5, spill_threshold=16)
    )
    compiled = api.Pash.compile(CROSS_BACKEND_SCRIPT, config)
    outputs = {}
    for backend in engine.available_backends():
        result = compiled.execute(backend=backend, environment=_cross_env())
        outputs[backend] = result.output_of("out.txt")
    assert outputs["parallel"] == outputs["interpreter"]
    assert outputs["shell"] == outputs["interpreter"]


def test_streaming_config_round_trips_through_dicts():
    config = PashConfig(
        width=3,
        streaming=StreamingConfig(chunk_size=1024, spill_threshold=4096, spill_directory="/tmp"),
    )
    payload = config.to_dict()
    assert payload["streaming"] == {
        "chunk_size": 1024,
        "spill_threshold": 4096,
        "spill_directory": "/tmp",
    }
    restored = PashConfig.from_dict(payload)
    assert restored == config


def test_streaming_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        PashConfig.from_dict({"streaming": {"bogus": 1}})


def test_encode_decode_inverse_still_holds():
    assert decode_block(encode_lines(UNICODE_LINES)) == UNICODE_LINES
