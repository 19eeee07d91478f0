"""Generated tests for the line-block data plane (framing and accounting).

Seeds are fixed so CI is deterministic; ``PASH_TEST_SEED`` widens coverage
(the ``fuzz-smoke`` CI step passes the run number) and every failure message
carries the seed that reproduces it.
"""

import os
import random
import sys
import threading

import pytest

from repro import api
from repro.api import PashConfig
from repro.engine.channels import (
    Channel,
    decode_block,
    encode_block,
    encode_lines,
    iter_decoded_lines,
    iter_encoded_chunks,
    iter_line_blocks,
)
from repro.engine.workers import DirectSource, FileSource, InlineSource
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
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


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_reader_output_is_independent_of_chunk_size(chunk_size):
    lines = streams(BASE_SEED)["multibyte"] + ["é" * 70_000, "tail"]
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()

    def produce():
        writer.write_lines(lines)
        writer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    reader = channel.reader()
    received = reader.read_lines()
    producer.join(timeout=30)
    assert not producer.is_alive()
    assert received == lines, f"seed={BASE_SEED} chunk_size={chunk_size}"
    assert reader.lines_read == writer.lines_written == len(lines)
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
        "inline materialized": InlineSource(lines, 7),
        "inline streamed": InlineSource(lines, 7),
        "file": FileSource(str(path), 7),
        "channel": DirectSource(channel.reader()),
    }
    for name, source in sources.items():
        if name == "inline streamed":
            received = decode_block(b"".join(source.iter_blocks()))
        else:
            received = source.lines()
        assert received == lines, name
        assert (source.bytes_in, source.lines_in) == (expected, len(lines)), name


@pytest.mark.parametrize(
    "script",
    [
        "cat bad.txt | tr A-Z a-z | sort",  # split[general] sees it first
        "cat bad.txt good.txt | tr A-Z a-z | sort",  # the tr block kernel reads the file
        "cat bad.txt good.txt | grep ok",
        "cat bad.txt > out.txt",
    ],
)
def test_invalid_utf8_raises_on_both_backends(tmp_path, monkeypatch, script):
    """The block kernels never decode, yet the inputs that raise are unchanged."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"ok line\n\xff\xfe bad\nok again\n")
    (tmp_path / "good.txt").write_bytes(b"ok fine\n")

    def environment():
        return ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))

    with pytest.raises(UnicodeDecodeError):
        api.run(script, backend="interpreter", environment=environment())
    config = PashConfig.paper_default(2, backend="parallel")
    with pytest.raises(ExecutionError, match="UnicodeDecodeError"):
        api.run(script, config=config, backend="parallel", environment=environment())
