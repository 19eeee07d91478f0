"""Eager relay buffers (§5.2, "Overcoming Laziness").

In the real system the eager relay is a small program with a tight
multi-threaded loop: it reads its input as fast as the producer can write,
buffering in memory and — past a high-water mark — spilling to disk
(dgsh-tee behaviour), so that upstream commands are never blocked on a
consumer that is not yet reading and memory use stays bounded no matter how
large the stream grows.

For the in-process executor a relay is the identity; its scheduling effect
— decoupling producer and consumer progress — is what the discrete-event
simulator models.  This module implements the three designs of Fig. 6 as a
line-level face over the engine's :class:`repro.engine.channels.SpillBuffer`
so that unit tests can exercise their observable differences (blocking vs.
non-blocking writes, drain-after-EOF behaviour) and the bounded-memory
property without forking processes.  Lines are stored as line blocks, and
the memory-or-disk decision, the spill file and its counters are the
buffer's.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.commands.base import BLOCK_LINES
from repro.engine.channels import SpillBuffer, decode_block, encode_block, iter_line_slices


class EagerBuffer:
    """A FIFO buffer decoupling a producer from a consumer.

    ``mode`` selects the design point:

    * ``"eager"`` — writes never block; reads drain the buffer and only
      signal exhaustion after the producer closed the stream.
    * ``"blocking"`` — writes are accepted but the consumer cannot read
      anything until the producer has closed the stream (the "Blocking
      Eager" configuration of Fig. 7).
    * ``"fifo"`` — models a plain named pipe with a bounded capacity; writes
      beyond the capacity report that the producer would block, which is the
      pathological behaviour eager relays remove.

    ``spill_threshold`` bounds the framed blocks' in-memory footprint in
    bytes: once exceeded, further blocks spill to a temporary file and are
    restored transparently, in order, as the consumer catches up.  ``None``
    keeps the buffer fully in memory.
    """

    def __init__(
        self,
        mode: str = "eager",
        capacity: int = 65536,
        spill_threshold: Optional[int] = None,
        spill_directory: Optional[str] = None,
    ) -> None:
        if mode not in ("eager", "blocking", "fifo"):
            raise ValueError(f"unknown eager buffer mode {mode!r}")
        self.mode = mode
        self.capacity = capacity
        self.buffer = SpillBuffer(
            sys.maxsize if spill_threshold is None else spill_threshold, spill_directory
        )
        self._framed = 0  # blocks appended to ``buffer`` and not yet popped
        self._unframed: List[str] = []  # written, not yet a block
        self._ready: Deque[str] = deque()  # the block being read
        self._length = 0
        self._closed = False
        self.total_buffered = 0
        self.blocked_writes = 0

    # -- producer side -------------------------------------------------------

    def write(self, line: str) -> bool:
        """Append a line; returns False when a plain FIFO would have blocked."""
        return not self.write_all([line])

    def write_all(self, lines: Iterable[str]) -> int:
        """Write many lines; returns the number of would-block events."""
        if self._closed:
            raise ValueError("cannot write to a closed buffer")
        blocked = 0
        for batch in iter_line_slices(lines):
            if self.mode == "fifo":
                # Line i of the batch would block when the queue already
                # holds ``capacity`` lines by the time it is written.
                room = min(len(batch), max(0, self.capacity - self._length))
                blocked += len(batch) - room
            self._unframed.extend(batch)
            self._length += len(batch)
            if len(self._unframed) >= BLOCK_LINES:
                self._frame()
        self.blocked_writes += blocked
        self.total_buffered = max(self.total_buffered, self._length)
        return blocked

    def _frame(self) -> None:
        if self._unframed:
            self.buffer.append(encode_block(self._unframed))
            self._framed += 1
            self._unframed = []

    def close(self) -> None:
        """Signal end-of-stream from the producer."""
        self._frame()
        self._closed = True
        self.buffer.close()

    # -- consumer side -------------------------------------------------------

    def readable(self) -> bool:
        """True when the consumer can currently make progress."""
        if self.mode == "blocking" and not self._closed:
            return False
        return self._length > 0

    def _next_block(self) -> List[str]:
        if not self._framed:
            self._frame()  # the rest of the queue is the unframed lines
        self._framed -= 1
        return decode_block(self.buffer.pop())

    def read(self) -> Optional[str]:
        """Pop one line, or None when nothing is currently readable."""
        if not self.readable():
            return None
        if not self._ready:
            self._ready.extend(self._next_block())
        self._length -= 1
        return self._ready.popleft()

    def drain(self) -> List[str]:
        """Read everything currently readable."""
        if not self.readable():
            return []
        lines = list(self._ready)
        self._ready.clear()
        self._frame()
        while self._framed:
            lines.extend(self._next_block())
        self._length = 0
        return lines

    def __len__(self) -> int:
        return self._length

    # -- accounting (the spill buffer's) ------------------------------------

    @property
    def peak_buffered_bytes(self) -> int:
        return self.buffer.peak_buffered_bytes

    @property
    def spilled_bytes(self) -> int:
        return self.buffer.spilled_bytes

    @property
    def spill_events(self) -> int:
        return self.buffer.spill_events
