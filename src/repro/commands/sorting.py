"""Ordering-sensitive commands: sort, uniq, comm, join, paste, nl."""

from __future__ import annotations

import re
from itertools import groupby
from typing import List, Tuple

from repro.commands.base import (
    BlockStream,
    CommandError,
    Stream,
    blocks_of_lines,
    concat_streams,
    flag_value,
    has_flag,
    lines_of_blocks,
    split_flags,
)


# ---------------------------------------------------------------------------
# sort
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^\s*(-?\d+(?:\.\d+)?)")


def _numeric_key(text: str) -> float:
    match = _NUMBER_RE.match(text)
    if not match:
        return 0.0
    return float(match.group(1))


def _sort_key_function(arguments: List[str]):
    """Build the key function implied by sort's flags (None: compare lines)."""
    numeric = has_flag(arguments, "-n")
    ignore_case = has_flag(arguments, "-f")
    dictionary = has_flag(arguments, "-d")
    key_spec = flag_value(arguments, "-k")
    if not (numeric or ignore_case or dictionary or key_spec):
        return None  # sorted() then compares in C, with no key call per line
    field_index = None
    key_numeric = numeric
    if key_spec:
        head = key_spec.split(",")[0]
        if head.endswith("n"):
            key_numeric = True
            head = head[:-1]
        if head.endswith("r"):
            head = head[:-1]
        field_index = int(head) if head else None

    def extract(line: str) -> str:
        if field_index is None:
            return line
        fields = line.split()
        if 0 < field_index <= len(fields):
            # POSIX sort keys run from the start of the field to end of line.
            return " ".join(fields[field_index - 1 :])
        return ""

    def key(line: str):
        text = extract(line)
        if dictionary:
            text = "".join(char for char in text if char.isalnum() or char.isspace())
        if ignore_case:
            text = text.lower()
        if key_numeric:
            return (_numeric_key(text), text)
        return text

    return key


def _sorted_lines(lines, key, reverse: bool, unique: bool):
    """Sort ``str`` or ``bytes`` lines; ``unique`` keeps the first of each key.

    Also the merge: Timsort finds the pre-sorted runs of concatenated sorted
    inputs and merges them in C, stably in both directions, so on sorted
    inputs this equals a k-way ``heapq.merge`` — the precondition POSIX lets
    ``sort -m`` assume and the ``merge_sort`` aggregator has by construction.
    """
    merged = sorted(lines, key=key, reverse=reverse)
    if unique:
        return [next(group) for _, group in groupby(merged, key)]
    return merged


def sort_command(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``sort [-r] [-n] [-u] [-f] [-d] [-k SPEC] [-m] [file...]``."""
    return _sorted_lines(
        concat_streams(inputs),
        _sort_key_function(arguments),
        has_flag(arguments, "-r"),
        has_flag(arguments, "-u"),
    )


def sort_block(arguments: List[str]):
    """Block kernel of :func:`sort_command` for ``-r``/``-u``/``-m`` only.

    Without a key-affecting flag the lines compare as a whole, and UTF-8 byte
    order is code-point order, so sorting the ``bytes`` lines is the ``str``
    sort.  Anything else (``-n -f -d -k``, operands, unknown flags) refuses.
    """
    if any(len(arg) < 2 or arg[0] != "-" or set(arg[1:]) - set("rum") for arg in arguments):
        return None
    reverse, unique = has_flag(arguments, "-r"), has_flag(arguments, "-u")

    def kernel(streams: List[BlockStream]) -> List[BlockStream]:
        return [blocks_of_lines(_sorted_lines(lines_of_blocks(streams), None, reverse, unique))]

    return kernel


# ---------------------------------------------------------------------------
# uniq
# ---------------------------------------------------------------------------


def uniq(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``uniq [-c] [-d] [-i]``: collapse adjacent duplicate lines."""
    count = has_flag(arguments, "-c")
    only_duplicates = has_flag(arguments, "-d")
    ignore_case = has_flag(arguments, "-i")
    data = concat_streams(inputs)

    groups: List[Tuple[str, int]] = []
    for line in data:
        comparable = line.lower() if ignore_case else line
        if groups and (groups[-1][0].lower() if ignore_case else groups[-1][0]) == comparable:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((line, 1))

    out: Stream = []
    for line, occurrences in groups:
        if only_duplicates and occurrences < 2:
            continue
        if count:
            out.append(f"{occurrences:7d} {line}")
        else:
            out.append(line)
    return out


# ---------------------------------------------------------------------------
# comm
# ---------------------------------------------------------------------------


def comm(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``comm [-1] [-2] [-3] file1 file2`` over two sorted inputs."""
    if len(inputs) < 2:
        raise CommandError("comm requires two input streams")
    first, second = list(inputs[0]), list(inputs[1])
    suppress_first = has_flag(arguments, "-1")
    suppress_second = has_flag(arguments, "-2")
    suppress_common = has_flag(arguments, "-3")

    column_offsets = {"first": 0, "second": 0, "common": 0}
    if not suppress_first:
        column_offsets["second"] += 1
        column_offsets["common"] += 1
    if not suppress_second:
        column_offsets["common"] += 1

    out: Stream = []

    def emit(column: str, line: str) -> None:
        if column == "first" and suppress_first:
            return
        if column == "second" and suppress_second:
            return
        if column == "common" and suppress_common:
            return
        out.append("\t" * column_offsets[column] + line)

    i = j = 0
    while i < len(first) and j < len(second):
        if first[i] == second[j]:
            emit("common", first[i])
            i += 1
            j += 1
        elif first[i] < second[j]:
            emit("first", first[i])
            i += 1
        else:
            emit("second", second[j])
            j += 1
    for line in first[i:]:
        emit("first", line)
    for line in second[j:]:
        emit("second", line)
    return out


# ---------------------------------------------------------------------------
# join / paste / nl
# ---------------------------------------------------------------------------


def join(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``join file1 file2`` on the first field of two sorted inputs."""
    if len(inputs) < 2:
        raise CommandError("join requires two input streams")
    first = [line.split(None, 1) for line in inputs[0]]
    second = [line.split(None, 1) for line in inputs[1]]
    out: Stream = []
    i = j = 0
    while i < len(first) and j < len(second):
        key_a = first[i][0] if first[i] else ""
        key_b = second[j][0] if second[j] else ""
        if key_a == key_b:
            rest_a = first[i][1] if len(first[i]) > 1 else ""
            rest_b = second[j][1] if len(second[j]) > 1 else ""
            pieces = [key_a]
            if rest_a:
                pieces.append(rest_a)
            if rest_b:
                pieces.append(rest_b)
            out.append(" ".join(pieces))
            i += 1
            j += 1
        elif key_a < key_b:
            i += 1
        else:
            j += 1
    return out


def paste(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``paste [-d DELIM] [-s]``: merge corresponding lines of the inputs."""
    delimiter = flag_value(arguments, "-d", "\t") or "\t"
    serial = has_flag(arguments, "-s")
    if serial:
        return [delimiter.join(stream) for stream in inputs if True]
    if len(inputs) == 1:
        return list(inputs[0])
    length = max((len(stream) for stream in inputs), default=0)
    out: Stream = []
    for index in range(length):
        out.append(
            delimiter.join(stream[index] if index < len(stream) else "" for stream in inputs)
        )
    return out


def nl(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``nl``: number non-empty lines."""
    out: Stream = []
    counter = 0
    for line in concat_streams(inputs):
        if line.strip():
            counter += 1
            out.append(f"{counter:6d}\t{line}")
        else:
            out.append("")
    return out


def tsort(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Topological sort of a pair-per-line dependency list."""
    pairs: List[Tuple[str, str]] = []
    tokens: List[str] = []
    for line in concat_streams(inputs):
        tokens.extend(line.split())
    if len(tokens) % 2 != 0:
        raise CommandError("tsort requires an even number of tokens")
    for index in range(0, len(tokens), 2):
        pairs.append((tokens[index], tokens[index + 1]))

    nodes = {token for pair in pairs for token in pair}
    dependencies = {node: set() for node in nodes}
    for before, after in pairs:
        if before != after:
            dependencies[after].add(before)

    out: Stream = []
    remaining = dict(dependencies)
    while remaining:
        ready = sorted(node for node, deps in remaining.items() if not deps)
        if not ready:
            raise CommandError("tsort: input contains a cycle")
        for node in ready:
            out.append(node)
            del remaining[node]
        for deps in remaining.values():
            deps.difference_update(ready)
    return out
