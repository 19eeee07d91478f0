"""Generated tests for the line-block data plane (framing and accounting).

Seeds are fixed so CI is deterministic; ``PASH_TEST_SEED`` widens coverage
(the ``fuzz-smoke`` CI step passes the run number) and every failure message
carries the seed that reproduces it.
"""

import os
import pickle
import random
import sys
import threading

import pytest

from repro import api
from repro.api import PashConfig
from repro.engine.channels import (
    Channel,
    ChannelError,
    SpillBuffer,
    StoredStream,
    decode_block,
    encode_block,
    encode_lines,
    iter_decoded_lines,
    iter_encoded_chunks,
    iter_line_blocks,
)
from repro.engine.workers import InputSource
from repro.resilience import fault
from repro.resilience.errors import ResourceExhausted
from repro.resilience.fault import SPILL_WRITE, FaultPlan, FaultSpec
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED + offset for offset in range(5)]
CHUNK_SIZES = [1, 2, 7, 65536]
ALPHABET = ["a", "Z", " ", "\t", "é", "ß", "→", "日本", "🙂", "\r", "0"]


def random_lines(rng: random.Random, count: int):
    return [
        "".join(rng.choice(ALPHABET) for _ in range(rng.choice([0, 0, 1, 3, 12, 80])))
        for _ in range(count)
    ]


def raw_bytes(rng: random.Random, count: int) -> bytes:
    """Lines of bytes that are not UTF-8: lone ``0x80``-``0xff`` bytes, each
    before an ASCII one so that no two form a valid sequence, and now and
    then a multibyte sequence cut short at the end of a line."""
    ascii_bytes = [b"a", b"Z", b" ", b"\t", b"\r", b"0"]
    lone = [bytes([code]) + rng.choice(ascii_bytes) for code in range(0x80, 0x100)]
    lines = [b"ok line", b"\xff\xfe bad"]
    for _ in range(count):
        line = b"".join(rng.choice(ascii_bytes + lone) for _ in range(rng.choice([0, 1, 3, 12])))
        if rng.random() < 0.3:
            line += rng.choice([b"\xe6", b"\xe6\x97", b"\xf0\x9f", b"\xf0\x9f\x99"])  # 日, 🙂 cut short
        lines.append(line)
    return b"".join(line + b"\n" for line in lines)


def streams(seed: int):
    """Named adversarial streams for one seed."""
    rng = random.Random(seed)
    return {
        "empty stream": [],
        "one empty line": [""],
        "empty lines": ["", "", "x", ""],
        "multibyte": random_lines(rng, 300),
        "many short": random_lines(rng, 6000),
        # The same for every seed, so only the first one pays for it.
        **({"one 1 MB line": ["é" * (1 << 19)]} if seed == BASE_SEED else {}),
        "raw bytes": decode_block(raw_bytes(rng, 300)),
    }


def rechunk(payload: bytes, size: int):
    return [payload[start : start + size] for start in range(0, len(payload), size)]


@pytest.mark.parametrize("seed", SEEDS)
def test_block_round_trip(seed):
    for name, lines in streams(seed).items():
        assert decode_block(encode_block(lines)) == lines, f"seed={seed} stream={name}"
        assert encode_lines(iter(lines)) == encode_block(lines), f"seed={seed} stream={name}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_decoding_is_independent_of_chunk_size(seed, chunk_size):
    for name, lines in streams(seed).items():
        context = f"seed={seed} chunk_size={chunk_size} stream={name}"
        framed = encode_block(lines)
        payloads = [framed]
        if lines and lines[-1]:
            payloads.append(framed[:-1])  # the final newline is optional
        for payload in payloads:
            blocks = list(iter_line_blocks(rechunk(payload, chunk_size)))
            assert all(block.endswith(b"\n") for block in blocks), context
            assert b"".join(blocks) == framed, context
            assert list(iter_decoded_lines(rechunk(payload, chunk_size))) == lines, context
        assert b"".join(iter_encoded_chunks(lines, chunk_size)) == encode_block(lines), context


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_reader_output_is_independent_of_chunk_size(chunk_size, incremental):
    """A real OS pipe re-chunks arbitrarily; decoding must stay exact."""
    lines = streams(BASE_SEED)["multibyte"] + ["é" * 70_000, "tail"]
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()

    def produce():
        writer.write_lines(lines)
        writer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    reader = channel.reader()
    if incremental:
        received = list(iter_decoded_lines(reader.iter_chunks()))
    else:
        received = reader.read_lines()
        assert reader.lines_read == len(lines)
    producer.join(timeout=30)
    assert not producer.is_alive()
    assert received == lines, f"seed={BASE_SEED} chunk_size={chunk_size}"
    assert writer.lines_written == len(lines)
    assert reader.bytes_read == writer.bytes_written == len(encode_block(lines))


def test_framing_cost_is_per_chunk_not_per_line():
    """100k lines through writer -> pipe -> reader: O(chunks) Python calls.

    The deterministic stand-in for a timing assertion: a per-line loop
    anywhere on the path would show as >= 100k profiled calls.
    """
    lines = [f"line {index} of the stream" for index in range(100_000)]
    calls = [0]

    def profiler(frame, event, argument):
        if event == "call":
            calls[0] += 1

    channel = Channel()
    writer, reader = channel.writer(), channel.reader()

    def produce():
        writer.write_lines(lines)
        writer.close()

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        producer = threading.Thread(target=produce)
        producer.start()
        received = reader.read_lines()
        producer.join(timeout=30)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert received == lines
    assert calls[0] < 10_000, f"{calls[0]} Python-level calls for {len(lines)} lines"


def test_bytes_in_counts_encoded_bytes_on_every_source(tmp_path):
    """A multibyte line weighs the same whichever way it reaches a worker."""
    lines = ["naïve café →", "日本語", "plain"]
    expected = len(encode_block(lines))
    assert expected > sum(len(line) + 1 for line in lines)

    path = tmp_path / "input.txt"
    path.write_bytes(encode_block(lines))
    channel = Channel()
    writer = channel.writer()
    writer.write_lines(lines)
    writer.close()
    sources = {
        "inline": InputSource(StoredStream(encode_block(lines)).blocks(7)),
        "file": InputSource(StoredStream(path=str(path)).blocks(7)),
        "channel": InputSource(channel.reader().iter_chunks()),
    }
    for name, source in sources.items():
        assert decode_block(b"".join(source.iter_blocks())) == lines, name
        assert (source.bytes_in, source.lines_in) == (expected, len(lines)), name


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_bytes_round_trip_exactly(seed):
    """Bytes in, the same bytes out: the codec escapes what does not decode."""
    payload = raw_bytes(random.Random(seed), 300)
    assert encode_block(decode_block(payload)) == payload, f"seed={seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "script",
    [
        "cat bad.txt | tr A-Z a-z | sort",  # split[general] sees it first
        "cat bad.txt good.txt | tr A-Z a-z | sort",  # the tr block kernel reads the file
        "cat bad.txt good.txt | grep ok",
        "cat bad.txt > out.txt",
    ],
)
def test_bytes_that_are_not_utf8_print_the_same_on_both_backends(tmp_path, monkeypatch, script, seed):
    """The block kernels never decode, the str commands do: both print the same bytes."""
    monkeypatch.chdir(tmp_path)
    payload = raw_bytes(random.Random(seed), 300)
    (tmp_path / "bad.txt").write_bytes(payload)
    (tmp_path / "good.txt").write_bytes(b"ok fine\n")

    def printed(backend):
        config = PashConfig.paper_default(2, backend=backend)
        environment = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
        result = api.run(script, config=config, backend=backend, environment=environment)
        return encode_block(result.stdout), {name: encode_block(lines) for name, lines in result.files.items()}

    expected = printed("interpreter")
    assert printed("parallel") == expected, f"seed={seed}"
    if script == "cat bad.txt > out.txt":
        assert expected == (b"", {"out.txt": payload})


# ---------------------------------------------------------------------------
# The one spill site: SpillBuffer in, StoredStream out
# ---------------------------------------------------------------------------


def random_pieces(rng: random.Random, payload: bytes):
    """The payload cut at random points (never an empty piece)."""
    pieces, start = [], 0
    while start < len(payload):
        size = rng.choice([1, 3, 64, 1000, 5000, 70_000])
        pieces.append(payload[start : start + size])
        start += size
    return pieces


def expected_spill(pieces, threshold):
    """(peak of the in-memory window, spilled pieces) for a buffer nobody pops from.

    The piece that overflows the window takes the window to disk with it.
    """
    peak = 0
    for piece in pieces:
        if peak + len(piece) > threshold:
            return peak, pieces
        peak += len(piece)
    return peak, []


def leftovers(directory):
    return os.listdir(directory) if os.path.isdir(directory) else []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("how", ["iterate", "hand off", "abandon", "disk full"])
def test_one_spill_site_round_trips_counts_and_cleans_up(seed, how, tmp_path):
    rng = random.Random(seed)
    for number, (name, lines) in enumerate(streams(seed).items()):
        payload = encode_block(lines)
        pieces = random_pieces(rng, payload)
        for threshold in (0, 1, len(payload) // 2, len(payload) + 1):
            context = f"seed={seed} stream={name} threshold={threshold} exit={how}"
            directory = str(tmp_path / f"run-{number}-{threshold}")  # made on first spill
            peak, spilled = expected_spill(pieces, threshold)
            buffer = SpillBuffer(threshold, directory)

            if how == "disk full":
                # ENOSPC on the k-th spill write, k random.
                k = rng.randrange(len(spilled)) if spilled else 0
                plan = FaultPlan(
                    [FaultSpec(SPILL_WRITE, after_bytes=sum(map(len, spilled[: k + 1])))]
                )
                previous = fault.active()
                fault.install(plan)
                try:
                    if spilled:
                        with pytest.raises(ResourceExhausted) as caught:
                            for piece in pieces:
                                buffer.append(piece)
                        assert caught.value.operation == "spill:write", context
                        assert buffer.spill_events == k, context
                    else:
                        for piece in pieces:
                            buffer.append(piece)
                finally:
                    fault.install(previous)
                buffer.abandon()
                assert leftovers(directory) == [], context
                continue

            written = pieces[: rng.randrange(len(pieces) + 1)] if how == "abandon" else pieces
            for piece in written:
                buffer.append(piece)
            if how == "abandon":
                buffer.abandon()
                assert list(buffer) == [], context
                with pytest.raises(ChannelError):
                    buffer.append(b"late\n")
                assert leftovers(directory) == [], context
                continue

            assert buffer.peak_buffered_bytes == peak <= threshold, context
            assert buffer.spilled_bytes == (len(payload) if spilled else 0), context
            assert buffer.spill_events == len(spilled), context
            assert buffer.buffered_bytes == (0 if spilled else len(payload)), context
            if how == "iterate":
                buffer.close()
                assert b"".join(buffer) == payload, context
            else:
                stored = pickle.loads(pickle.dumps(buffer.store()))
                assert stored.data == (b"" if spilled else payload), context
                assert (stored.path is None) == (not spilled), context
                if stored.path is not None:
                    assert os.path.dirname(stored.path) == directory, context
                for chunk_size in (1, rng.randrange(2, 9000), 65536):
                    if chunk_size > 1 or len(payload) < 10_000:
                        assert b"".join(stored.blocks(chunk_size)) == payload, context
                assert stored.lines(rng.randrange(1, 9000)) == lines, context
                assert list(buffer) == [], context  # the buffer let go of it
                stored.unlink()
            assert leftovers(directory) == [], context
