"""OS-pipe channels: the streams of the parallel execution engine.

A :class:`Channel` wraps one ``os.pipe`` — the engine's realization of a DFG
edge.  Framing is newline-delimited UTF-8 and the unit that moves is the
*line block* — a ``bytes`` object of whole, ``\\n``-terminated lines
(:func:`iter_line_blocks`, :func:`encode_block`, :func:`decode_block`) — so
framing costs one C call per block, never one Python iteration per line.
Backpressure is the kernel's: a producer that outruns its consumer blocks in
``write(2)`` exactly like a process writing to a full FIFO, which is the
behaviour PaSh's eager relays exist to mitigate (§5.2).

The hot path is *bounded-memory streaming*: readers iterate chunk-by-chunk
(:meth:`ChannelReader.iter_chunks` / :meth:`ChannelReader.iter_lines`, which
decodes incrementally and is correct even when a multi-byte UTF-8 sequence is
split across a chunk boundary), and :class:`EagerPump` drains a producer into
a :class:`SpillBuffer` — an in-memory FIFO with a configurable high-water
mark beyond which chunks spill to an unlinked temporary file, the dgsh-tee
behaviour PaSh's eager relays adopt for larger-than-memory streams.  The
pump therefore never blocks the producer *and* never holds more than
``spill_threshold`` bytes in memory.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import deque
from itertools import chain, islice
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.commands.base import BLOCK_LINES
from repro.resilience import fault as fault_injection
from repro.resilience.errors import wrap_capacity_error

#: Default framing-chunk size; matches a typical Linux pipe buffer.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Default per-buffer in-memory high-water mark (bytes) before spilling.
DEFAULT_SPILL_THRESHOLD = 1 << 23


class ChannelError(RuntimeError):
    """Raised on invalid channel operations (e.g. writing after close)."""


def encode_block(lines: Sequence[str]) -> bytes:
    """Frame lines as one *line block*: whole, ``\\n``-terminated UTF-8 lines."""
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def decode_block(block: bytes) -> List[str]:
    """Inverse of :func:`encode_block` (tolerates a missing final newline).

    Splitting after the decode equals splitting the bytes — UTF-8 never
    holds ``0x0A`` inside a sequence — and the strict decode raises on
    invalid input.
    """
    lines = block.decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


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


def iter_line_slices(lines: Iterable[str]) -> Iterator[List[str]]:
    """Cut a stream into lists of at most ``BLOCK_LINES`` lines."""
    iterator = iter(lines)
    return iter(lambda: list(islice(iterator, BLOCK_LINES)), [])


def encode_lines(lines: Iterable[str]) -> bytes:
    """Frame a whole stream as newline-terminated UTF-8 bytes."""
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


def iter_decoded_batches(chunks: Iterable[bytes]) -> Iterator[List[str]]:
    """Decode framed chunks into one line batch per line block."""
    return map(decode_block, iter_line_blocks(chunks))


def iter_decoded_lines(chunks: Iterable[bytes]) -> Iterator[str]:
    """Decode framed chunks into lines, incrementally (UTF-8-safe)."""
    return chain.from_iterable(iter_decoded_batches(chunks))


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

    def iter_lines(self) -> Iterator[str]:
        """Yield decoded lines incrementally (UTF-8-safe across chunks)."""
        for batch in iter_decoded_batches(self.iter_chunks()):
            self.lines_read += len(batch)
            yield from batch

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


#: A buffered element: in-memory bytes, or an (offset, length) spill-file ref.
_Token = Union[bytes, Tuple[int, int]]


class SpillBuffer:
    """A FIFO byte-chunk buffer with a bounded in-memory window.

    Chunks are appended by a producer and popped (in order) by a consumer.
    While the in-memory window holds less than ``spill_threshold`` bytes,
    chunks stay in memory; beyond the high-water mark they spill to an
    unlinked temporary file (so crashed processes never leak spill files) and
    are read back transparently when their turn comes.  Appends therefore
    *never block*, which is exactly the dgsh-tee eager-relay contract: the
    producer always makes progress, and memory use stays under the
    configured bound no matter how far the consumer lags.

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
            if self._mem_bytes + len(chunk) > self.spill_threshold:
                self._spill(chunk)
            else:
                self._tokens.append(bytes(chunk))
                self._mem_bytes += len(chunk)
                if self._mem_bytes > self.peak_buffered_bytes:
                    self.peak_buffered_bytes = self._mem_bytes
            self._condition.notify_all()

    def _spill(self, chunk: bytes) -> None:
        fault_injection.fire(fault_injection.SPILL_WRITE, len(chunk))
        try:
            if self._file is None:
                if self.directory:
                    # A configured directory may not exist yet (service jobs
                    # get per-job directories; users point at scratch
                    # paths): create it here rather than crash at the first
                    # oversized stream.
                    os.makedirs(self.directory, exist_ok=True)
                self._file = tempfile.TemporaryFile(
                    prefix="pash-spill-", dir=self.directory
                )
            self._file.seek(self._write_offset)
            self._file.write(chunk)
        except OSError as exc:
            raise wrap_capacity_error(
                exc, "spill:write", self.directory, len(chunk)
            ) from exc
        self._tokens.append((self._write_offset, len(chunk)))
        self._write_offset += len(chunk)
        self.spilled_bytes += len(chunk)
        self.spill_events += 1

    def close(self) -> None:
        """Signal end-of-stream from the producer."""
        with self._condition:
            self._closed = True
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
            if self._closed and not self._tokens:
                self._release_file()
            return data

    def __iter__(self) -> Iterator[bytes]:
        while True:
            chunk = self.pop()
            if chunk is None:
                return
            yield chunk

    def discard(self) -> None:
        """Drop all buffered data and release the spill file."""
        with self._condition:
            self._tokens.clear()
            self._mem_bytes = 0
            self._closed = True
            self._release_file()
            self._condition.notify_all()

    def _release_file(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._file = None


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

    # -- accounting ----------------------------------------------------------

    @property
    def peak_buffered_bytes(self) -> int:
        return self.buffer.peak_buffered_bytes

    @property
    def spilled_bytes(self) -> int:
        return self.buffer.spilled_bytes

    @property
    def spill_events(self) -> int:
        return self.buffer.spill_events
