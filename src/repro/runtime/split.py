"""The two split implementations (§5.2, "Splitting Challenges").

* ``general`` — usable with any stream: consume the whole input, count the
  lines, then divide them evenly.  Correct but introduces a pipeline barrier.
* ``input-aware`` — usable when the input size is known up front: emit
  fixed-size contiguous blocks without a counting pass, preserving
  task-based parallelism.

Executed in memory the two produce the same chunks; they differ in the
timing behaviour modelled by :mod:`repro.simulator` and in the shell code
emitted by the back-end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.commands.base import BlockKernel, Stream, blocks_of_lines, lines_of_blocks


def split_stream(
    lines: Sequence[str],
    parts: int,
    strategy: str = "general",
    known_size: Optional[int] = None,
) -> List[Stream]:
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

    total = known_size if (strategy == "input-aware" and known_size is not None) else len(data)
    base, remainder = divmod(total, parts)
    chunks: List[Stream] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append(data[start : start + size])
        start += size
    # Any lines beyond a stale known_size still need a home: append them to
    # the last chunk so no data is lost.
    if start < len(data):
        chunks[-1].extend(data[start:])
    return chunks


def split_block(parts: int) -> BlockKernel:
    """Block kernel of :func:`split_stream`: the same partition, over bytes lines."""
    return lambda streams: [
        blocks_of_lines(chunk) for chunk in split_stream(lines_of_blocks(streams), parts)
    ]


def round_robin_split(lines: Sequence[str], parts: int) -> List[Stream]:
    """Round-robin splitting.

    Provided for comparison in the ablation benchmarks; PaSh does not use it
    because it breaks commands whose semantics depend on adjacency (``uniq``)
    and costs more when re-merging ordered output.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    chunks: List[Stream] = [[] for _ in range(parts)]
    for index, line in enumerate(lines):
        chunks[index % parts].append(line)
    return chunks
