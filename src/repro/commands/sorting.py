"""Ordering-sensitive commands: sort, uniq, comm, join, paste, nl."""

from __future__ import annotations

import heapq
import re
from collections import Counter
from itertools import chain, count, groupby, repeat, zip_longest
from operator import itemgetter
from typing import List, Tuple

from repro.commands.base import (
    CommandError,
    Stream,
    concat_streams,
    flag_value,
    has_flag,
    only_flags,
    stream_kernel,
)


# ---------------------------------------------------------------------------
# sort
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^\s*(-?\d+(?:\.\d+)?)")


def _sort_keys_function(arguments: List[str]):
    """Build ``lines -> (texts, numbers)`` as implied by sort's flags (None: compare lines).

    A line's key is ``(number, text)``, ``numbers`` None without ``-n``; a stream's
    keys are built a column at a time, each step one comprehension or ``map``.
    """
    numeric = has_flag(arguments, "-n")
    ignore_case = has_flag(arguments, "-f")
    dictionary = has_flag(arguments, "-d")
    key_spec = flag_value(arguments, "-k")
    separator = flag_value(arguments, "-t")
    if not (numeric or ignore_case or dictionary or key_spec):
        return None  # sorted() then compares in C, with no key per line
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

    def keys(lines: List[str]) -> list:
        texts = lines
        if field_index:
            # POSIX sort keys run from the start of the field to end of line (-t: fields end at each SEP).
            texts = [(separator or " ").join(line.split(separator)[field_index - 1 :]) for line in texts]
        if dictionary:  # keeps ``isalnum`` (``\w`` less the underscore) and ``isspace``
            texts = [re.sub(r"[^\w\s]+|_+", "", text) for text in texts]
        if ignore_case:
            texts = list(map(str.lower, texts))
        if not key_numeric:
            return texts, None
        return texts, [float(match.group(1)) if match else 0.0 for match in map(_NUMBER_RE.match, texts)]

    return keys


#: Lines of an input's prefix whose distinct count picks the plain sort's path.
_DISTINCT_SAMPLE = 256


def _sorted_lines(lines, keys_of, reverse: bool, unique: bool, owned: bool = False):
    """Sort ``str`` or ``bytes`` lines; ``unique`` keeps the first of each key.

    ``owned``: the caller built ``lines`` itself, so a plain sort may sort it
    in place; anyone else's list is read-only and is copied by ``sorted()``.

    Also the gathered ``merge_sort``: Timsort finds the pre-sorted runs of
    concatenated sorted branches and merges them in C, stably in both
    directions — sorted by construction, so this is their k-way merge.

    A plain sort whose prefix repeats itself (fewer distinct lines than half
    the sample: a stream of words or characters) counts first and compares
    only the distinct lines; equal lines are the same line, so expanding the
    counts in key order is the sorted input.
    """
    if keys_of is None:
        sample = lines[:_DISTINCT_SAMPLE]
        if 2 * len(set(sample)) < len(sample):
            counts = Counter(lines)
            keys = sorted(counts, reverse=reverse)
            if unique:
                return keys
            return list(chain.from_iterable(map(repeat, keys, map(counts.__getitem__, keys))))
        if owned:
            lines.sort(reverse=reverse)
            merged = lines
        else:
            merged = sorted(lines, reverse=reverse)
        return [key for key, _ in groupby(merged)] if unique else merged
    # Positions sort by prebuilt keys, looked up in C: by text, then by number —
    # stably, so as one sort by ``(number, text)`` would, without a tuple per line.
    texts, numbers = keys_of(lines)
    order = sorted(range(len(lines)), key=texts.__getitem__, reverse=reverse)
    if numbers is not None:
        order.sort(key=numbers.__getitem__, reverse=reverse)
    if unique:  # a number is a function of its text
        order = [next(group) for _, group in groupby(order, texts.__getitem__)]
    return [lines[position] for position in order]


def _merged_lines(streams: List[Stream], keys_of, reverse: bool, unique: bool) -> Stream:
    """GNU ``sort -m``: a stable k-way merge of the inputs as they are.

    Each step takes the least head by the sort's own comparison (the
    greatest under ``-r``), the earliest input on a tie; an unsorted input
    is not sorted first, so its disorder shows as GNU's does.  ``-u`` drops
    a line whose key equals the line output before it.
    """
    if keys_of is None:
        merged = heapq.merge(*streams, reverse=reverse)
        return [key for key, _ in groupby(merged)] if unique else list(merged)
    keyed = []
    for stream in streams:
        texts, numbers = keys_of(stream)
        keyed.append(zip(texts if numbers is None else zip(numbers, texts), texts, stream))
    merged = heapq.merge(*keyed, key=itemgetter(0), reverse=reverse)
    if unique:  # a number is a function of its text
        return [next(group)[2] for _, group in groupby(merged, itemgetter(1))]
    return [line for _, _, line in merged]


def sort_command(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``sort [-r] [-n] [-u] [-f] [-d] [-k SPEC] [-t SEP] [-m] [file...]``.

    Over two or more inputs (the gathered ``merge_sort`` of the parallel
    branches) the concatenation is a fresh list, which a plain sort then
    sorts in place; ``-m`` merges the inputs instead of sorting them.
    """
    keys_of = _sort_keys_function(arguments)
    reverse, unique = has_flag(arguments, "-r"), has_flag(arguments, "-u")
    if has_flag(arguments, "-m"):
        return _merged_lines(inputs, keys_of, reverse, unique)
    return _sorted_lines(concat_streams(inputs), keys_of, reverse, unique, owned=len(inputs) > 1)


def sort_block(arguments: List[str]):
    """Block kernel of :func:`sort_command` for ``-r``/``-u`` only.

    Without a key-affecting flag the lines compare as a whole, and UTF-8 byte
    order is code-point order, so sorting the ``bytes`` lines is the ``str``
    sort.  Anything else (``-m -n -f -d -k``, operands, unknown flags) refuses.
    """
    if not only_flags(arguments, "ru"):
        return None
    reverse, unique = has_flag(arguments, "-r"), has_flag(arguments, "-u")
    return stream_kernel(lambda lines: _sorted_lines(lines, None, reverse, unique, owned=True))


# ---------------------------------------------------------------------------
# uniq
# ---------------------------------------------------------------------------


def _uniq_lines(arguments: List[str], data, template="%7d %s"):
    """:func:`uniq` over ``str`` lines, or ``bytes`` lines with a ``bytes`` template."""
    counting = has_flag(arguments, "-c")
    only_duplicates, only_unique = has_flag(arguments, "-d"), has_flag(arguments, "-u")
    key = type(template).lower if has_flag(arguments, "-i") else None
    if not (counting or only_duplicates or only_unique):
        return [next(group) for _, group in groupby(data, key)]
    groups = [list(group) for _, group in groupby(data, key)]
    if only_duplicates:
        groups = [group for group in groups if len(group) > 1]
    if only_unique:
        groups = [group for group in groups if len(group) == 1]
    if counting:
        return [template % (len(group), group[0]) for group in groups]
    return [group[0] for group in groups]


def uniq(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``uniq [-c] [-d] [-u] [-i]``: collapse adjacent duplicate lines."""
    return _uniq_lines(arguments, concat_streams(inputs))


def uniq_block(arguments: List[str]):
    """Block kernel of :func:`uniq` for ``-c``/``-d`` (``bytes.lower`` folds ASCII only: no ``-i``)."""
    if not only_flags(arguments, "cd"):
        return None
    return stream_kernel(lambda lines: _uniq_lines(arguments, lines, b"%7d %s"))


# ---------------------------------------------------------------------------
# comm
# ---------------------------------------------------------------------------


def comm(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``comm [-1] [-2] [-3] file1 file2`` over two sorted inputs."""
    if len(inputs) < 2:
        raise CommandError("comm requires two input streams")
    first, second = inputs[0], inputs[1]
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
        return [delimiter.join(stream) for stream in inputs]
    return list(map(delimiter.join, zip_longest(*inputs, fillvalue="")))


def nl(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``nl``: number non-empty lines."""
    numbers = count(1)
    return ["%6d\t%s" % (next(numbers), line) if line.strip() else "" for line in concat_streams(inputs)]


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
