"""The two split implementations (§5.2, "Splitting Challenges").

* ``general`` — usable with any stream: consume the whole input, count the
  lines, then divide them evenly.  Correct but introduces a pipeline barrier.
* ``input-aware`` — usable when the input size is known up front: emit
  fixed-size contiguous blocks without a counting pass, preserving
  task-based parallelism.

Executed in memory the two produce the same chunks; they differ in the
timing behaviour modelled by :mod:`repro.simulator`.  Where bytes move — the
parallel engine and the emitted script's ``split`` helper — the input tells
which one runs: :func:`repro.engine.channels.file_ranges` cuts a regular file
into byte ranges in place, and a pipe is spooled to a file first.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.commands.base import BlockKernel, Stream, blocks_of_lines, lines_of_blocks


def split_stream(lines: Sequence[str], parts: int, strategy: str = "general") -> List[Stream]:
    """Split ``lines`` into ``parts`` contiguous chunks.

    Chunks are balanced to within one line.  The final list always has
    exactly ``parts`` entries (later entries may be empty when there are
    fewer lines than parts), because the consumers of a split are created
    before its input size is known.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    data = list(lines)
    if strategy not in ("general", "input-aware"):
        raise ValueError(f"unknown split strategy {strategy!r}")

    base, remainder = divmod(len(data), parts)
    chunks: List[Stream] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append(data[start : start + size])
        start += size
    return chunks


def split_block(parts: int) -> BlockKernel:
    """Block kernel of :func:`split_stream`: the same partition, over bytes lines."""
    return lambda streams: [
        blocks_of_lines(chunk) for chunk in split_stream(lines_of_blocks(streams), parts)
    ]

