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
from repro.runtime.eager import EagerBuffer
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


def test_spill_buffer_is_memory_or_disk_and_reuses_its_file(tmp_path):
    """Overflow moves the window to disk; a caught-up consumer moves it back."""
    buffer = SpillBuffer(spill_threshold=8, directory=str(tmp_path))
    buffer.append(b"aaaa")
    buffer.append(b"bbbb")
    assert (buffer.buffered_bytes, buffer.spilled_bytes) == (8, 0)
    buffer.append(b"cccc")  # overflows: the window goes to the file first
    assert (buffer.buffered_bytes, buffer.spilled_bytes, buffer.spill_events) == (0, 12, 3)
    buffer.append(b"d")  # behind unread spilled chunks: stays in order, on disk
    assert [buffer.pop() for _ in range(4)] == [b"aaaa", b"bbbb", b"cccc", b"d"]
    buffer.append(b"ee")  # caught up: memory again
    assert (buffer.buffered_bytes, buffer.spilled_bytes) == (2, 13)
    buffer.append(b"f" * 8)
    (spill_file,) = os.listdir(tmp_path)
    assert os.path.getsize(tmp_path / spill_file) == 13  # reused from its start
    buffer.close()
    assert list(buffer) == [b"ee", b"f" * 8]
    assert buffer.peak_buffered_bytes == 8
    assert os.listdir(tmp_path) == []


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
    assert pump.buffer.peak_buffered_bytes <= 4096
    assert pump.buffer.spilled_bytes > 0


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


@pytest.mark.parametrize("mode", ["eager", "blocking", "fifo"])
def test_relay_identity_holds_with_spill(mode, tmp_path):
    """A stream through an eager buffer comes out unchanged, via disk too."""
    for lines in (UNICODE_LINES * 50, []):
        buffer = EagerBuffer(mode=mode, spill_threshold=64, spill_directory=str(tmp_path))
        buffer.write_all(lines)
        buffer.close()
        assert buffer.drain() == lines
        assert bool(buffer.spilled_bytes) == bool(lines)
        assert os.listdir(tmp_path) == []  # drained: the spill file is gone


def test_eager_buffer_read_interleaves_with_writes_across_blocks():
    """Line-at-a-time reads see unframed, framed and spilled lines in order."""
    buffer = EagerBuffer(spill_threshold=8)
    buffer.write_all(["a", "b"])
    assert buffer.read() == "a"
    buffer.write_all(["c" * 20])  # past the threshold: this block spills
    buffer.write("d")
    assert len(buffer) == 3
    assert [buffer.read(), buffer.read()] == ["b", "c" * 20]
    buffer.close()
    assert buffer.drain() == ["d"]
    assert buffer.read() is None and len(buffer) == 0


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
    # `cat | sort` is one fused stage and it materializes; its output is
    # larger than the bound, so the stage hands it off as a file (spilled)
    # while its in-memory window stays under the bound.
    (stage,) = result.metrics.nodes
    assert stage.label == "cat | sort" and result.metrics.stages_fused == 1
    assert stage.spilled_bytes >= sum(len(line) + 1 for line in lines)
    assert stage.peak_buffered_bytes <= 2048
    assert "spilled" in result.metrics.summary()


#: A corpus 100x the spill threshold, as the engine's 100 MB streaming
#: measurement had it against 1 MB.
CORPUS_THRESHOLD = 16 * 1024


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """An on-disk corpus of 100 thresholds and its interpreter oracle."""
    path = tmp_path_factory.mktemp("streaming") / "big.txt"
    with open(path, "w") as handle:
        index = 0
        while handle.tell() < 100 * CORPUS_THRESHOLD:
            handle.write(
                f"record {index:09d} the quick brown fox jumps over the lazy dog {index % 97:02d}\n"
            )
            index += 1
    script = f"cat {path} | tr a-z A-Z | grep FOX > out.txt"
    oracle = api.run(script, backend="interpreter", environment=_disk_environment())
    return script, os.path.getsize(path), oracle.output_of("out.txt")


def test_a_streamed_corpus_stays_bounded_and_spills_through_disk(corpus):
    """Every stage streaming (no split): no buffer holds more than the
    threshold, and the overflow, most of the input, went through disk."""
    script, size, expected = corpus
    config = PashConfig(
        width=2,
        disabled_passes=("split-insertion",),
        streaming=StreamingConfig(spill_threshold=CORPUS_THRESHOLD),
    )
    result = api.run(script, config=config, backend="parallel", environment=_disk_environment())
    assert result.output_of("out.txt") == expected
    assert size >= 50 * CORPUS_THRESHOLD
    assert result.metrics.peak_buffered_bytes <= CORPUS_THRESHOLD
    assert result.metrics.total_spilled_bytes > size // 2
    assert result.metrics.total_spill_events > 0


def test_a_split_corpus_stays_bounded_and_byte_identical(corpus):
    script, _, expected = corpus
    config = PashConfig.paper_default(2, streaming=StreamingConfig(spill_threshold=CORPUS_THRESHOLD))
    result = api.run(script, config=config, backend="parallel", environment=_disk_environment())
    assert result.output_of("out.txt") == expected
    assert result.metrics.peak_buffered_bytes <= CORPUS_THRESHOLD


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


# ---------------------------------------------------------------------------
# A full disk is a typed error wherever the one spill site is reached from
# ---------------------------------------------------------------------------


@pytest.fixture
def disk_full():
    """ENOSPC on every spill write in this process, for the test's duration."""
    from repro.resilience import fault
    from repro.resilience.fault import SPILL_WRITE, FaultPlan, FaultSpec

    plan = FaultPlan([FaultSpec(SPILL_WRITE, errno_name="ENOSPC", max_fires=0)])
    previous = fault.active()
    fault.install(plan)
    yield plan
    fault.install(previous)


def test_disk_full_surfaces_from_the_pump_as_resource_exhausted(disk_full, tmp_path):
    from repro.resilience.errors import ResourceExhausted

    channel = Channel()
    pump = EagerPump(channel.reader(), spill_threshold=8, spill_directory=str(tmp_path))
    pump.start()
    writer = channel.writer()
    writer.write_lines(["0123456789"] * 4)
    writer.close()
    with pytest.raises(ResourceExhausted, match="spill:write"):
        list(pump.iter_chunks())
    assert os.listdir(tmp_path) == []


def test_disk_full_in_run_node_raises_and_abandons_the_outputs(disk_full, tmp_path):
    """The raising face of the node runner: typed error, metrics kept, no file."""
    from repro.dfg.builder import DFGBuilder
    from repro.engine.channels import StoredStream
    from repro.engine.metrics import NodeMetrics
    from repro.engine.workers import InputPort, OutputPort, WorkerPlan, run_node
    from repro.resilience.errors import ResourceExhausted

    graph = DFGBuilder().build_from_script("cat in.txt | sort")
    node = next(node for node in graph.nodes.values() if node.label() == "sort")
    lines = [f"row {index:03d}" for index in range(50)]
    plan = WorkerPlan(
        node=node,
        inputs=[InputPort(node.inputs[0], stream=StoredStream(encode_lines(lines)))],
        outputs=[OutputPort(node.outputs[0])],
        streaming=StreamingConfig(spill_threshold=32, spill_directory=str(tmp_path)),
    )
    metrics = NodeMetrics.of(node)
    with pytest.raises(ResourceExhausted):
        run_node(plan, metrics)
    assert metrics.lines_in == 50 and metrics.wall_seconds > 0
    assert os.listdir(tmp_path) == []
    assert disk_full.fires_at("spill:write") == 1

    from repro.resilience import fault

    fault.install(None)  # the same plan on a healthy disk: stored, readable, bounded
    outputs = run_node(plan, NodeMetrics.of(node))
    stored = outputs[node.outputs[0]]
    assert stored.data == b"" and os.path.dirname(stored.path) == str(tmp_path)
    assert stored.lines() == sorted(lines)


def test_disk_full_in_a_worker_fails_the_run_and_leaves_nothing(tmp_path):
    from repro.api.config import ResilienceConfig
    from repro.resilience.fault import SPILL_WRITE, FaultSpec
    from repro.runtime.executor import ExecutionError

    lines = [f"record {i:05d}" for i in range(3_000)]
    env = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": lines}))
    config = PashConfig(
        width=1,
        streaming=StreamingConfig(spill_threshold=1024, spill_directory=str(tmp_path)),
        resilience=ResilienceConfig(faults=(FaultSpec(SPILL_WRITE, max_fires=0),)),
    )
    with pytest.raises(ExecutionError, match="ResourceExhausted.*spill:write"):
        api.run("cat in.txt | grep record > out.txt", config=config, backend="parallel", environment=env)
    assert os.listdir(tmp_path) == []


def test_the_interpreter_never_reaches_the_spill_site(disk_full):
    """The degradation ladder's landing ground: relays are copies, no buffer."""
    config = PashConfig.paper_default(4, streaming=StreamingConfig(spill_threshold=0))
    compiled = api.Pash.compile(CROSS_BACKEND_SCRIPT, config)
    assert any(
        node.kind == "relay" for graph in compiled.optimized_graphs for node in graph.nodes.values()
    )
    result = compiled.execute(backend="interpreter", environment=_cross_env())
    assert result.output_of("out.txt")
    assert disk_full.fires_at("spill:write") == 0
