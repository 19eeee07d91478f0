"""The aggregator library (§5.2, "Aggregator Implementations").

Aggregators merge the partial outputs of the parallel copies of a pure
command so that the combined result equals running the command over the
whole input.  Each aggregator takes the list of partial output streams plus
the original command's argument vector (flags such as ``sort -rn`` or
``head -n 5`` change how merging must behave).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence

from repro.commands import misc, sorting, textproc
from repro.commands.argv import parse_argv
from repro.commands.base import Stream, concat_streams


class AggregatorError(ValueError):
    """Raised when an unknown aggregator is requested."""


def concat(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Concatenate partial outputs (the aggregator of stateless commands)."""
    return concat_streams(list(streams))


def squeeze_concat(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Concatenate ``tr -s`` outputs, mending the runs a boundary cut.

    Every part ends in a newline, so when newlines squeeze, a later part
    that begins with one (an empty first line) continues that run.
    """
    squeezes_newline = textproc.tr_plan(tuple(arguments))[2]
    merged: Stream = []
    for stream in streams:
        merged += stream[1:] if squeezes_newline and merged and stream[:1] == [""] else stream
    return merged


def merge_sort(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Merge sorted runs — ``sort -m`` with the original flags (a run-merge)."""
    return sorting.sort_command(list(arguments), list(streams))


#: Block kernels of the aggregators that have one, beside their ``str`` twins:
#: ``name -> factory(arguments) -> BlockKernel or None``.
BLOCK_AGGREGATORS = {"merge_sort": sorting.sort_block}


_UNIQ_COUNT_RE = re.compile(r"^\s*(\d+) (.*)$", re.DOTALL)


def merge_uniq(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Merge ``uniq`` outputs by fixing up the chunk boundaries.

    Plain ``uniq`` partial outputs may repeat a line across a boundary; with
    ``-c`` the boundary counts must be summed.  Both cases only require
    looking at the last line of one chunk and the first line of the next.
    """
    counting = parse_argv("uniq", arguments).has("-c")
    merged: Stream = []
    for stream in streams:
        for line in stream:
            if not merged:
                merged.append(line)
                continue
            if counting:
                previous_match = _UNIQ_COUNT_RE.match(merged[-1])
                current_match = _UNIQ_COUNT_RE.match(line)
                if (
                    previous_match
                    and current_match
                    and previous_match.group(2) == current_match.group(2)
                ):
                    total = int(previous_match.group(1)) + int(current_match.group(1))
                    merged[-1] = f"{total:7d} {previous_match.group(2)}"
                    continue
                merged.append(line)
            else:
                if line == merged[-1]:
                    continue
                merged.append(line)
    return merged


def merge_uniq_count(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Merge ``uniq -c`` outputs (exposed separately for clarity)."""
    merged_arguments = list(arguments)
    if "-c" not in merged_arguments:
        merged_arguments.append("-c")
    return merge_uniq(streams, merged_arguments)


def merge_wc(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Sum ``wc`` outputs column-wise (handles any of -l/-w/-c combinations)."""
    totals: List[int] = []
    for stream in streams:
        if not stream:
            continue
        fields = [int(field) for field in stream[-1].split()]
        if not totals:
            totals = fields
        else:
            if len(fields) != len(totals):
                raise AggregatorError("wc partial outputs have mismatched columns")
            totals = [a + b for a, b in zip(totals, fields)]
    return [" ".join(str(value) for value in totals)] if totals else []


def merge_tac(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Concatenate ``tac`` partial outputs in reverse stream order."""
    return concat_streams(list(reversed(streams)))


def merge_head(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Apply ``head`` again over the concatenation of partial outputs."""
    return misc.head(list(arguments), [concat_streams(list(streams))])


def merge_tail(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Apply ``tail`` again over the concatenation of partial outputs."""
    return misc.tail(list(arguments), [concat_streams(list(streams))])


def merge_sum(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Sum single-number outputs (e.g. parallel ``grep -c`` copies)."""
    total = 0
    for stream in streams:
        for line in stream:
            if line.strip():
                total += int(line.strip())
    return [str(total)]


def merge_comm(streams: Sequence[Stream], arguments: Sequence[str]) -> Stream:
    """Concatenate comm outputs (valid when the second input is static)."""
    return concat_streams(list(streams))


AGGREGATORS: Dict[str, Callable[[Sequence[Stream], Sequence[str]], Stream]] = {
    "concat": concat,
    "squeeze_concat": squeeze_concat,
    "merge_sort": merge_sort,
    "merge_uniq": merge_uniq,
    "merge_uniq_count": merge_uniq_count,
    "merge_wc": merge_wc,
    "merge_tac": merge_tac,
    "merge_head": merge_head,
    "merge_tail": merge_tail,
    "merge_comm": merge_comm,
    "sum": merge_sum,
}


def apply_aggregator(
    name: str, streams: Sequence[Stream], arguments: Sequence[str]
) -> Stream:
    """Apply the aggregator called ``name``."""
    try:
        aggregator = AGGREGATORS[name]
    except KeyError as exc:
        raise AggregatorError(f"unknown aggregator {name!r}") from exc
    return aggregator(streams, arguments)
