"""OS-pipe channels: the streams of the parallel execution engine.

A :class:`Channel` wraps one ``os.pipe`` — the engine's realization of a DFG
edge.  Framing is newline-delimited bytes, any bytes, and the unit that moves
is the *line block* — a ``bytes`` object of whole, ``\\n``-terminated lines
(:func:`iter_line_blocks`; :func:`encode_block` and :func:`decode_block` are
the stream codec of :mod:`repro.commands.base`) — so framing costs one C call
per block, never one Python iteration per line.
Backpressure is the kernel's: a producer that outruns its consumer blocks in
``write(2)`` exactly like a process writing to a full FIFO, which is the
behaviour PaSh's eager relays exist to mitigate (§5.2).

The hot path is *bounded-memory streaming*: readers iterate chunk-by-chunk
(:meth:`ChannelReader.iter_chunks`; :func:`iter_line_blocks` re-cuts the
chunks at line boundaries, so a multi-byte UTF-8 sequence split across two
of them is never decoded in halves), and :class:`EagerPump` drains a producer
into a :class:`SpillBuffer` — an in-memory FIFO with a configurable
high-water mark beyond which chunks spill to a temporary file, the dgsh-tee
behaviour PaSh's eager relays adopt for larger-than-memory streams.  The
pump therefore never blocks the producer *and* never holds more than
``spill_threshold`` bytes in memory.

:class:`SpillBuffer` is the only code under ``src/`` that decides between
memory and disk, creates a spill file, fires the ``spill:write`` fault point
or counts spilled bytes, and with :class:`StoredStream` the only code that
reads a spill file back or removes one.  Everything that collects a stream
to hold it *at rest* — a worker's graph output, a cluster edge on either
side of the socket — appends to a buffer and hands it off
(:meth:`SpillBuffer.store`) as a stored stream, the one picklable
representation of a materialized edge.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Iterable, Iterator, List, Optional, Tuple, Union

from repro.commands.base import decode_block, encode_block, iter_line_slices
from repro.resilience import fault as fault_injection
from repro.resilience.errors import wrap_capacity_error

#: Default framing-chunk size; matches a typical Linux pipe buffer.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Default per-buffer in-memory high-water mark (bytes) before spilling.
DEFAULT_SPILL_THRESHOLD = 1 << 23


class ChannelError(RuntimeError):
    """Raised on invalid channel operations (e.g. writing after close)."""


def iter_line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Re-cut arbitrary byte chunks into line blocks, incrementally.

    Each chunk is cut at its last ``\\n`` and the tail carried into the next,
    so a block never ends inside a line (or inside a multi-byte sequence); a
    final line without its newline is given one.  This is the single copy of
    the split/carry algorithm: every decoder and every block kernel consumes
    its output.
    """
    carry: List[bytes] = []
    for chunk in chunks:
        cut = chunk.rfind(b"\n") + 1
        if cut:
            carry.append(chunk[:cut])
            yield b"".join(carry)
            carry.clear()
        if cut < len(chunk):
            carry.append(chunk[cut:])
    if carry:
        carry.append(b"\n")
        yield b"".join(carry)


def encode_lines(lines: Iterable[str]) -> bytes:
    """Frame a whole stream as newline-terminated bytes."""
    return b"".join(map(encode_block, iter_line_slices(lines)))


def iter_encoded_chunks(lines: Iterable[str], chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
    """Frame a stream as line blocks of about ``chunk_size`` bytes.

    The bounded-memory counterpart of :func:`encode_lines`: lines are encoded
    a slice at a time, and a chunk ends at the first newline at or past
    ``chunk_size`` bytes — it overhangs by at most a line, and only the last
    one is shorter.
    """
    chunk_size = max(1, chunk_size)
    tail = b""
    for block in map(encode_block, iter_line_slices(lines)):
        block = tail + block
        start = 0
        while len(block) - start >= chunk_size:
            end = block.find(b"\n", start + chunk_size - 1) + 1
            yield block[start:end]
            start = end
        tail = block[start:]
    if tail:
        yield tail


def iter_decoded_lines(chunks: Iterable[bytes]) -> Iterator[str]:
    """Decode framed chunks into lines, a line block at a time (never mid-sequence)."""
    return chain.from_iterable(map(decode_block, iter_line_blocks(chunks)))


class Channel:
    """One unidirectional byte channel backed by an OS pipe."""

    def __init__(self, edge_id: int = -1, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.edge_id = edge_id
        self.chunk_size = chunk_size
        self.read_fd, self.write_fd = os.pipe()

    def fds(self) -> List[int]:
        return [self.read_fd, self.write_fd]

    def reader(self) -> "ChannelReader":
        return ChannelReader(self.read_fd, chunk_size=self.chunk_size)

    def writer(self) -> "ChannelWriter":
        return ChannelWriter(self.write_fd, chunk_size=self.chunk_size)

    def close(self) -> None:
        """Close both ends (idempotent; used by the parent after forking).

        Truly idempotent: a second call is a no-op rather than a re-close of
        fd numbers the OS may already have reused for something else.
        """
        fds, self.read_fd, self.write_fd = (self.read_fd, self.write_fd), -1, -1
        for fd in fds:
            if fd < 0:
                continue
            try:
                os.close(fd)
            except OSError:
                pass


class ChannelWriter:
    """Producer end of a channel: chunked, counted line writes."""

    def __init__(self, fd: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.fd = fd
        self.chunk_size = max(1, chunk_size)
        self.bytes_written = 0
        self.lines_written = 0
        self._buffer = bytearray()
        self._closed = False

    def write_lines(self, lines: Iterable[str]) -> None:
        for batch in iter_line_slices(lines):
            self.write_chunk(encode_block(batch), len(batch))

    def write_chunk(self, data: bytes, lines: Optional[int] = None) -> None:
        """Forward an already-framed line block (the pass-through hot path).

        ``lines`` is the block's line count when the caller knows it; counting
        newlines costs about as much as encoding the block did.
        """
        if self._closed:
            raise ChannelError("cannot write to a closed channel")
        self.lines_written += data.count(b"\n") if lines is None else lines
        if len(data) >= self.chunk_size:
            # A full block goes straight to the pipe: no staging copy.
            self.flush()
            self._write(data)
            return
        self._buffer += data
        if len(self._buffer) >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            data = bytes(self._buffer)
            self._buffer.clear()
            self._write(data)

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            written = os.write(self.fd, view)
            self.bytes_written += written
            view = view[written:]

    def close(self) -> None:
        """Flush pending bytes and signal EOF to the consumer."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            try:
                os.close(self.fd)
            except OSError:
                pass

    def abandon(self) -> None:
        """Close without flushing (used when the consumer is already gone)."""
        self._closed = True
        self._buffer.clear()
        try:
            os.close(self.fd)
        except OSError:
            pass


class ChannelReader:
    """Consumer end of a channel: chunked, counted reads until EOF."""

    def __init__(self, fd: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.fd = fd
        self.chunk_size = max(1, chunk_size)
        self.bytes_read = 0
        self.lines_read = 0
        self._closed = False

    def iter_chunks(self) -> Iterator[bytes]:
        """Yield raw byte chunks until EOF; closes the fd afterwards.

        At most one chunk is held at a time, so a consumer that forwards or
        folds each chunk runs in bounded memory regardless of stream size.
        """
        while True:
            chunk = os.read(self.fd, self.chunk_size)
            if not chunk:
                break
            self.bytes_read += len(chunk)
            fault_injection.fire(fault_injection.CHANNEL_READ, len(chunk))
            yield chunk
        self.close()

    def read_lines(self) -> List[str]:
        """Drain the channel to EOF and return the framed lines."""
        lines = decode_block(b"".join(self.iter_chunks()))
        self.lines_read += len(lines)
        return lines

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            os.close(self.fd)
        except OSError:
            pass


def _unlink(path: Optional[str]) -> None:
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass


@dataclass(frozen=True)
class StoredStream:
    """A closed stream at rest: the one form of a materialized edge.

    Inline ``data``, or the ``path`` of a file — what a closed
    :class:`SpillBuffer` held in memory or had moved to disk, frozen and
    picklable, so the same value sits in an edge table, rides inside a
    worker's plan or report, and is cut into frames for a socket.  A stream
    under the spill threshold travels with the value; a larger one stays in
    its file (a pickled multi-megabyte ``bytes`` crosses a queue's pipe at a
    fraction of page-cache speed).  A graph input that is a real file is
    just its ``path``, and one part of a file-backed split is the byte
    range ``[start, end)`` of it (``end`` None = to the end of the file).
    The bytes are newline-delimited but a piece may end anywhere;
    consumers re-cut with :func:`iter_line_blocks`.
    """

    data: bytes = b""
    path: Optional[str] = None
    start: int = 0
    end: Optional[int] = None

    def blocks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        """The stream's bytes in order, in pieces of at most ``chunk_size``."""
        chunk_size = max(1, chunk_size)
        for start in range(0, len(self.data), chunk_size):
            yield self.data[start : start + chunk_size]
        if self.path is not None:
            with open(self.path, "rb") as handle:
                handle.seek(self.start)
                left = sys.maxsize if self.end is None else self.end - self.start
                while left > 0 and (piece := handle.read(min(chunk_size, left))):
                    left -= len(piece)
                    yield piece

    def lines(self, piece_size: int = DEFAULT_SPILL_THRESHOLD) -> List[str]:
        """The whole stream decoded — the one decode of a collected stream.

        A file no larger than ``piece_size`` (the caller's spill threshold:
        what it may hold in memory anyway) is one ``read`` and one decode; a
        larger one is read in pieces of that size, one ``decode``/``split``
        per piece, not one per channel chunk.
        """
        if self.path is None:
            return decode_block(self.data)
        with open(self.path, "rb") as handle:
            end = os.fstat(handle.fileno()).st_size if self.end is None else self.end
            if not self.data and end - self.start <= piece_size:
                handle.seek(self.start)
                # To EOF when the range is open: a file may be longer than
                # ``stat`` said (procfs reports 0).
                return decode_block(handle.read(-1 if self.end is None else end - self.start))
        return list(iter_decoded_lines(self.blocks(piece_size)))

    def unlink(self) -> None:
        """Remove the file (only its writer's run calls this)."""
        _unlink(self.path)


def file_ranges(path: str, parts: int) -> List[StoredStream]:
    """Cut a regular file into ``parts`` contiguous, line-aligned byte ranges.

    The input-aware split of §5.2 with no copy, no barrier and no process:
    each of the ``parts - 1`` nominal cut points (``size * k // parts``)
    moves forward to just past the next ``\n``, and never behind the cut
    before it — so a line longer than a part yields empty ranges, never a
    torn line or a torn UTF-8 sequence.  The last range runs to the end of
    the *file*, not to the size ``stat`` gave: a procfs file reports 0 and a
    log may grow, and either way the last branch reads what ``cat`` would.
    """
    size = os.stat(path).st_size
    cuts = [0]
    with open(path, "rb") as handle:
        for index in range(1, parts):
            # From the byte before: a cut already behind a newline stays.
            position = max(cuts[-1], size * index // parts - 1)
            if position > cuts[-1]:
                handle.seek(position)
                for piece in iter(lambda: handle.read(DEFAULT_CHUNK_SIZE), b""):
                    newline = piece.find(b"\n")
                    if newline >= 0:
                        position += newline + 1
                        break
                    position += len(piece)
            cuts.append(position)
    return [StoredStream(path=path, start=a, end=b) for a, b in zip(cuts, cuts[1:] + [None])]


#: A buffered element: in-memory bytes, or an (offset, length) spill-file ref.
_Token = Union[bytes, Tuple[int, int]]


class SpillBuffer:
    """A FIFO byte-chunk buffer with a bounded in-memory window.

    Chunks are appended by a producer and popped (in order) by a consumer.
    While the in-memory window holds less than ``spill_threshold`` bytes,
    chunks stay in memory.  The chunk that would overflow it moves the
    window to a temporary file in ``directory`` and the stream goes on
    there — one file, in order, read back transparently — until the consumer
    has caught up; then memory again.  Appends therefore *never block*,
    which is exactly the dgsh-tee eager-relay contract: the producer always
    makes progress, and memory use stays under the configured bound no
    matter how far the consumer lags.

    A buffer has two exits.  A consumer in this process iterates it (the
    eager pump, a blocking relay); the file is removed when the last chunk
    is popped.  Or the producer hands the closed buffer off with
    :meth:`store`, and a file lives on, under its name, as the returned
    :class:`StoredStream`.  :meth:`abandon` is the failure exit of both.  A
    process killed in between leaves the file behind, so whoever runs
    workers gives them a run-scoped ``directory`` and removes it.

    Thread-safe for one producer and one consumer.
    """

    def __init__(
        self,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        directory: Optional[str] = None,
    ) -> None:
        self.spill_threshold = max(0, spill_threshold)
        self.directory = directory
        self._condition = threading.Condition()
        self._tokens: Deque[_Token] = deque()
        self._mem_bytes = 0
        self._closed = False
        self._file = None
        self._path: Optional[str] = None
        self._write_offset = 0
        #: High-water mark actually reached by the in-memory window.
        self.peak_buffered_bytes = 0
        #: Total bytes written to the spill file.
        self.spilled_bytes = 0
        #: Number of chunks that went through the spill file.
        self.spill_events = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held in memory (excludes spilled chunks)."""
        with self._condition:
            return self._mem_bytes

    # -- producer side -------------------------------------------------------

    def append(self, chunk: bytes) -> None:
        """Enqueue a chunk; spills past the high-water mark, never blocks."""
        if not chunk:
            return
        with self._condition:
            if self._closed:
                raise ChannelError("cannot append to a closed spill buffer")
            if self._on_disk():
                self._spill(chunk)
            elif self._mem_bytes + len(chunk) > self.spill_threshold:
                # The window goes first, so the file is the stream in order
                # (what store() hands off) and its memory is released.
                window = list(self._tokens)
                self._tokens.clear()
                self._mem_bytes = 0
                for held in (*window, chunk):
                    self._spill(held)
            else:
                self._tokens.append(bytes(chunk))
                self._mem_bytes += len(chunk)
                if self._mem_bytes > self.peak_buffered_bytes:
                    self.peak_buffered_bytes = self._mem_bytes
            self._condition.notify_all()

    def _on_disk(self) -> bool:
        """Whether the unread stream is in the spill file (else: in memory)."""
        return bool(self._tokens) and type(self._tokens[-1]) is tuple

    def append_lines(self, lines: Iterable[str]) -> None:
        """Enqueue decoded lines, framed a line block at a time."""
        for batch in iter_line_slices(lines):
            self.append(encode_block(batch))

    def _spill(self, chunk: bytes) -> None:
        try:
            fault_injection.fire(fault_injection.SPILL_WRITE, len(chunk))
            if self._file is None:
                if self.directory:
                    # A configured directory may not exist yet (service jobs
                    # get per-job directories; users point at scratch
                    # paths): create it here rather than crash at the first
                    # oversized stream.
                    os.makedirs(self.directory, exist_ok=True)
                handle, self._path = tempfile.mkstemp(
                    prefix="pash-spill-", dir=self.directory
                )
                self._file = os.fdopen(handle, "w+b")
            self._file.seek(self._write_offset)
            self._file.write(chunk)
            # Reach the disk inside this try: a full one must fail here, as
            # a typed error, not at some later close.
            self._file.flush()
        except OSError as exc:
            raise wrap_capacity_error(
                exc, "spill:write", self._path or self.directory, len(chunk)
            ) from exc
        self._tokens.append((self._write_offset, len(chunk)))
        self._write_offset += len(chunk)
        self.spilled_bytes += len(chunk)
        self.spill_events += 1

    def close(self) -> None:
        """Signal end-of-stream from the producer."""
        with self._condition:
            self._closed = True
            if not self._tokens:
                self._release_file()
            self._condition.notify_all()

    def store(self) -> StoredStream:
        """Close the buffer and hand its whole stream off, file included.

        For a buffer nobody popped from: it is all in memory (the window is
        joined into ``data``) or all in the spill file, which keeps its name
        and now belongs to the returned value.
        """
        with self._condition:
            self._closed = True
            data, path = b"", None
            if self._on_disk():
                path, self._path = self._path, None
            else:
                data = b"".join(self._tokens)
            self._tokens.clear()
            self._mem_bytes = 0
            self._release_file()
            self._condition.notify_all()
            return StoredStream(data, path)

    def abandon(self) -> None:
        """Drop all buffered data and remove the spill file (failure exit)."""
        with self._condition:
            self._tokens.clear()
            self._mem_bytes = 0
            self._closed = True
            self._release_file()
            self._condition.notify_all()

    # -- consumer side -------------------------------------------------------

    def pop(self) -> Optional[bytes]:
        """Dequeue the next chunk in order; None signals end-of-stream.

        Blocks while the buffer is empty and the producer has not closed it.
        """
        with self._condition:
            while not self._tokens and not self._closed:
                self._condition.wait()
            if not self._tokens:
                self._release_file()
                return None
            token = self._tokens.popleft()
            if isinstance(token, tuple):
                offset, length = token
                self._file.seek(offset)
                data = self._file.read(length)
            else:
                data = token
                self._mem_bytes -= len(data)
            if not self._tokens:
                # Caught up: the spill file is reused from its start, or done.
                self._write_offset = 0
                if self._closed:
                    self._release_file()
            return data

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.pop, None)

    def _release_file(self) -> None:
        """Close the spill file and remove it unless store() took its name."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._file = None
        _unlink(self._path)
        self._path = None


class EagerPump(threading.Thread):
    """Drain a reader into a bounded spill buffer (the engine's eager relay).

    One pump per input edge lets a worker consume all of its inputs at the
    producers' pace: the pump thread keeps the upstream pipe drained (so
    producers never block on an idle consumer, making the engine
    deadlock-free for arbitrary fan-in/fan-out shapes), while the buffer
    keeps at most ``spill_threshold`` bytes in memory and spills the excess
    to disk — PaSh's dgsh-tee eager relay, not an unbounded list.
    """

    def __init__(
        self,
        reader: ChannelReader,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        spill_directory: Optional[str] = None,
    ) -> None:
        super().__init__(daemon=True)
        self.reader = reader
        self.buffer = SpillBuffer(spill_threshold, directory=spill_directory)
        self._error: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - runs on the pump thread
        try:
            for chunk in self.reader.iter_chunks():
                self.buffer.append(chunk)
        except BaseException as exc:  # noqa: BLE001 - re-raised at consumption
            self._error = exc
        finally:
            self.buffer.close()

    # -- consumer side -------------------------------------------------------

    def iter_chunks(self) -> Iterator[bytes]:
        """Consume buffered chunks as they arrive (concurrent with the pump)."""
        for chunk in self.buffer:
            yield chunk
        self.join()
        if self._error is not None:
            raise self._error
