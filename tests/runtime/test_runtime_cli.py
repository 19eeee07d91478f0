"""Tests for the runtime helper CLI used by emitted scripts — run as processes."""

import glob
import os
import select
import signal
import subprocess
import sys
import threading

import pytest

from repro.engine.channels import DEFAULT_SPILL_THRESHOLD
from repro.runtime import cli

HELPER = [sys.executable, "-m", "repro.runtime.cli"]
MB = 1 << 20
#: More than a pipe holds (64 KiB), so a writer whose reader left cannot finish.
BLOCK = b"".join(b"line %06d of the stream\n" % index for index in range(40000))


def run_cli(arguments, stdin=b"", **options):
    if isinstance(stdin, bytes):
        options["input"] = stdin
    else:
        options["stdin"] = stdin
    return subprocess.run([*HELPER, *arguments], capture_output=True, check=True, **options)


def spawn(arguments, tmp_path, **options):
    """A helper with piped stdio whose spill files land in ``tmp_path``."""
    options.setdefault("stdin", subprocess.PIPE)
    return subprocess.Popen(
        [*HELPER, *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        **options,
    )


def spill_files(tmp_path):
    return glob.glob(str(tmp_path / "pash-spill-*"))


def reap(process):
    """Exit status and peak RSS (bytes) of this one child, via ``wait4``."""
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)


# ---------------------------------------------------------------------------
# eager
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["eager", "blocking"])
@pytest.mark.parametrize("data", [b"", b"b\na\n", b"b\na", "café\n".encode()])
def test_eager_is_the_identity_on_bytes(mode, data):
    assert run_cli(["eager", "--mode", mode], data).stdout == data


@pytest.mark.parametrize("mode, streams", [("eager", True), ("blocking", False)])
def test_eager_streams_and_blocking_waits_for_eof(mode, streams, tmp_path):
    """Fig. 6: the two relays differ in *when* bytes move, not in which."""
    process = spawn(["eager", "--mode", mode], tmp_path)
    try:
        process.stdin.write(b"first\n")
        process.stdin.flush()
        # stdin is still open: only a streaming relay has anything to say.
        # (A slow start can only make the blocking case pass, never fail.)
        readable, _, _ = select.select([process.stdout], [], [], 20 if streams else 1.5)
        assert bool(readable) is streams
        if streams:
            assert os.read(process.stdout.fileno(), 64) == b"first\n"
        process.stdin.write(b"second\n")
        process.stdin.close()
        rest = process.stdout.read()
        assert rest == (b"second\n" if streams else b"first\nsecond\n")
        assert process.wait(timeout=20) == 0
    finally:
        process.kill()
        process.wait()


def test_eager_memory_is_bounded_by_the_spill_threshold(tmp_path):
    """64 MB through a relay whose reader stalls: a window in memory, the rest on disk.

    The bound is the window plus slack on top of what the helper weighs
    before its first byte: ``import repro`` alone is ~26 MB here, three
    windows, so an absolute bound would measure the import, not the relay.
    """
    idle = spawn(["eager"], tmp_path, stdin=subprocess.DEVNULL)
    idle.stdout.read()
    status, idle_rss = reap(idle)
    assert status == 0

    process = spawn(["eager"], tmp_path)
    try:
        # Nobody reads stdout yet, so everything written must be absorbed.
        for _ in range(64 * MB // len(BLOCK) + 1):
            process.stdin.write(BLOCK)
        process.stdin.close()
        assert spill_files(tmp_path)
        total = 0
        for chunk in iter(lambda: process.stdout.read(MB), b""):
            total += len(chunk)
        status, peak_rss = reap(process)
    finally:
        if process.returncode is None:
            process.kill()
            process.wait()
    assert status == 0
    assert total == (64 * MB // len(BLOCK) + 1) * len(BLOCK)
    assert peak_rss < idle_rss + 2 * DEFAULT_SPILL_THRESHOLD
    assert not spill_files(tmp_path)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

SPLIT_INPUTS = {
    "empty": b"",
    "one-line": b"only\n",
    "balanced": b"1\n2\n3\n4\n5\n",
    "long-line": b"x" * 100 + b"\na\nb\n",
    "no-final-newline": b"1\n22\n333\n4444",
    # 16-byte lines of 3-byte characters: every nominal cut of 2 or 3 parts
    # falls inside a multi-byte sequence.
    "multi-byte": ("€" * 5 + "\n").encode() * 7,
}


@pytest.mark.parametrize("source", ["file", "pipe", "file-past-offset-0"])
@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("name", list(SPLIT_INPUTS))
def test_split_parts_are_line_aligned_and_concatenate_to_the_input(name, parts, source, tmp_path):
    data = SPLIT_INPUTS[name]
    outputs = [str(tmp_path / f"part{index}") for index in range(parts)]
    environment = dict(os.environ, TMPDIR=str(tmp_path))
    if source == "pipe":
        run_cli(["split", *outputs], data, env=environment)
    else:
        (tmp_path / "in").write_bytes(data)
        with open(tmp_path / "in", "rb", buffering=0) as handle:
            if source == "file-past-offset-0" and data:
                # What `{ read line; split; } < in` hands over: the rest.
                skipped = data.index(b"\n") + 1
                handle.seek(skipped)
                data = data[skipped:]
            run_cli(["split", *outputs], handle, env=environment)
    pieces = [open(path, "rb").read() for path in outputs]
    assert b"".join(pieces) == data
    assert all(piece.endswith(b"\n") for piece in pieces[:-1] if piece)
    for piece in pieces:
        piece.decode("utf-8")
    assert not spill_files(tmp_path)


# ---------------------------------------------------------------------------
# agg
# ---------------------------------------------------------------------------


def test_agg_merge_wc(tmp_path):
    (tmp_path / "a").write_text("3 10\n")
    (tmp_path / "b").write_text("4 11\n")
    result = run_cli(["agg", "merge_wc", str(tmp_path / "a"), str(tmp_path / "b")])
    assert result.stdout.strip() == b"7 21"


@pytest.mark.parametrize(
    "arguments, inputs, expected",
    [
        (["merge_sort"], [b"1\n3\n", b"2\n4\n"], b"1\n2\n3\n4\n"),
        (["merge_sort", "--", "-n"], [b"2\n10\n", b"9\n"], b"2\n9\n10\n"),
        (
            ["merge_uniq", "--", "-c"],
            [b"      2 a\n      1 b\n", b"      3 b\n      1 c\n"],
            b"      2 a\n      4 b\n      1 c\n",
        ),
    ],
)
def test_agg_reads_fifos(arguments, inputs, expected, tmp_path):
    """An emitted script hands the aggregator FIFOs: it may read, never seek."""
    paths = [str(tmp_path / f"fifo{index}") for index in range(len(inputs))]
    for path in paths:
        os.mkfifo(path)

    def feed(path, data):
        with open(path, "wb") as handle:
            handle.write(data)

    name, *flags = arguments
    process = spawn(["agg", name, *paths, *flags], tmp_path, stdin=subprocess.DEVNULL)
    feeders = [threading.Thread(target=feed, args=pair) for pair in zip(paths, inputs)]
    for feeder in feeders:
        feeder.start()
    stdout, stderr = process.communicate(timeout=30)
    for feeder in feeders:
        feeder.join(timeout=30)
    assert (stdout, stderr, process.returncode) == (expected, b"", 0)


# ---------------------------------------------------------------------------
# SIGPIPE: a helper dies like `cat`, silently, and takes its spill file along
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("helper", ["eager", "eager-blocking", "agg", "split"])
def test_helper_whose_reader_exits_early_dies_by_sigpipe(helper, tmp_path):
    (tmp_path / "in").write_bytes(BLOCK)
    fifo = str(tmp_path / "out")
    os.mkfifo(fifo)
    arguments = {
        "eager": ["eager"],
        "eager-blocking": ["eager", "--mode", "blocking"],
        "agg": ["agg", "concat", str(tmp_path / "in")],
        "split": ["split", fifo],
    }[helper]
    with open(tmp_path / "in", "rb") as source:
        process = spawn(arguments, tmp_path, stdin=source)
    # The reader shows up and leaves without reading (`head` that had enough).
    if helper == "split":
        os.close(os.open(fifo, os.O_RDONLY))
    process.stdout.close()
    assert process.wait(timeout=30) == -signal.SIGPIPE
    assert process.stderr.read() == b""
    process.stderr.close()
    assert not spill_files(tmp_path)


@pytest.mark.parametrize("how", ["reader-exits", "kill -PIPE"])
def test_sigpipe_removes_the_spill_file(how, tmp_path):
    """The emitted script's cleanup tail signals relays that hold a spill file."""
    process = spawn(["eager"], tmp_path)
    try:
        for _ in range(2 * DEFAULT_SPILL_THRESHOLD // len(BLOCK)):
            process.stdin.write(BLOCK)
        process.stdin.flush()
        assert spill_files(tmp_path)
        if how == "reader-exits":
            process.stdout.close()
        else:
            process.send_signal(signal.SIGPIPE)
        assert process.wait(timeout=30) == -signal.SIGPIPE
        assert process.stderr.read() == b""
    finally:
        process.kill()
        process.wait()
    assert not spill_files(tmp_path)


# ---------------------------------------------------------------------------
# The parser, and main() in-process
# ---------------------------------------------------------------------------


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


@pytest.mark.parametrize(
    "arguments", [["eager", "--mode", "fifo"], ["split", "--strategy", "general", "out"]]
)
def test_flags_that_selected_nothing_are_gone(arguments):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(arguments)


def test_main_entry_point_in_process(capsys, monkeypatch, tmp_path):
    """main() takes stdin's descriptor and stdout's buffer from ``sys``."""
    source = tmp_path / "x"
    source.write_text("5\n1\n")
    with open(source) as handle:
        monkeypatch.setattr("sys.stdin", handle)
        assert cli.main(["eager"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["5", "1"]
