"""Tests for split, eager buffers, and the virtual filesystem."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime.eager import EagerBuffer
from repro.runtime.split import split_stream
from repro.runtime.streams import VirtualFileSystem

lines_strategy = st.lists(st.text(alphabet="xyz", max_size=5), max_size=50)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_contiguous_and_balanced():
    chunks = split_stream([str(i) for i in range(10)], 3)
    assert [len(c) for c in chunks] == [4, 3, 3]
    assert sum(chunks, []) == [str(i) for i in range(10)]


def test_split_more_parts_than_lines():
    chunks = split_stream(["a"], 4)
    assert len(chunks) == 4
    assert sum(chunks, []) == ["a"]


def test_split_invalid_arguments():
    with pytest.raises(ValueError):
        split_stream(["a"], 0)
    with pytest.raises(ValueError):
        split_stream(["a"], 2, strategy="zigzag")


@given(lines_strategy, st.integers(min_value=1, max_value=6))
def test_split_concatenation_is_identity(lines, parts):
    assert sum(split_stream(lines, parts), []) == lines


@given(lines_strategy, st.integers(min_value=1, max_value=6))
def test_split_chunk_sizes_differ_by_at_most_one(lines, parts):
    sizes = [len(chunk) for chunk in split_stream(lines, parts)]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# eager buffers
# ---------------------------------------------------------------------------


def test_eager_buffer_reads_before_close():
    buffer = EagerBuffer(mode="eager")
    buffer.write("a")
    assert buffer.readable()
    assert buffer.read() == "a"


def test_blocking_buffer_reads_only_after_close():
    buffer = EagerBuffer(mode="blocking")
    buffer.write("a")
    assert not buffer.readable()
    buffer.close()
    assert buffer.drain() == ["a"]


def test_fifo_buffer_reports_blocked_writes():
    buffer = EagerBuffer(mode="fifo", capacity=2)
    blocked = buffer.write_all(["1", "2", "3", "4"])
    assert blocked == 2
    assert buffer.blocked_writes == 2
    buffer.close()
    assert buffer.drain() == ["1", "2", "3", "4"]


def test_write_after_close_raises():
    buffer = EagerBuffer()
    buffer.close()
    with pytest.raises(ValueError):
        buffer.write("x")


def test_invalid_mode_raises():
    with pytest.raises(ValueError):
        EagerBuffer(mode="warp")


def test_buffer_tracks_high_watermark():
    buffer = EagerBuffer()
    buffer.write_all(["a", "b", "c"])
    buffer.read()
    assert buffer.total_buffered == 3


@given(lines_strategy, st.sampled_from(["eager", "blocking", "fifo"]))
def test_relay_is_identity(lines, mode):
    buffer = EagerBuffer(mode=mode)
    buffer.write_all(lines)
    buffer.close()
    assert buffer.drain() == lines


# ---------------------------------------------------------------------------
# virtual filesystem
# ---------------------------------------------------------------------------


def test_vfs_write_read_append():
    vfs = VirtualFileSystem({"a.txt": ["1"]})
    vfs.append("a.txt", ["2"])
    vfs.write("b.txt", ["x"])
    assert vfs.read("a.txt") == ["1", "2"]
    assert vfs.read("b.txt") == ["x"]
    assert vfs.names() == ["a.txt", "b.txt"]
    assert vfs.total_lines() == 3


def test_vfs_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        VirtualFileSystem().read("nope.txt")


def test_vfs_copy_is_independent():
    vfs = VirtualFileSystem({"a.txt": ["1"]})
    clone = vfs.copy()
    clone.append("a.txt", ["2"])
    assert vfs.read("a.txt") == ["1"]


def test_vfs_real_file_fallback(tmp_path):
    target = tmp_path / "real.txt"
    target.write_text("hello\nworld\n")
    vfs = VirtualFileSystem(allow_real_files=True)
    assert vfs.read(str(target)) == ["hello", "world"]
    assert str(target) in vfs


def test_vfs_delete():
    vfs = VirtualFileSystem({"a.txt": ["1"]})
    vfs.delete("a.txt")
    assert "a.txt" not in vfs


def test_vfs_line_count_is_exact_in_memory_and_sampled_on_disk(tmp_path):
    path = tmp_path / "big.txt"
    lines = [f"line number {index:07d} of the file" for index in range(20_000)]
    path.write_text("\n".join(lines) + "\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "oneline.txt").write_text("no newline at all")
    vfs = VirtualFileSystem({"mem.txt": ["a", "b", "c"]}, allow_real_files=True)
    assert vfs.line_count("mem.txt") == 3
    # Uniform lines: size / sampled line length is exact.
    assert vfs.line_count(str(path)) == 20_000
    assert vfs.line_count(str(tmp_path / "empty.txt")) == 0
    assert vfs.line_count(str(tmp_path / "oneline.txt")) == 1
    assert vfs.line_count(str(tmp_path / "missing.txt")) is None
    # Without the fallback a name that is not in memory is unknown.
    assert VirtualFileSystem().line_count(str(path)) is None
