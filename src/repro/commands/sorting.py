"""Ordering-sensitive commands: sort, uniq, comm, join, paste, nl."""

from __future__ import annotations

import heapq
import re
import string
from collections import Counter
from functools import cmp_to_key, lru_cache, partial
from itertools import chain, count, cycle, groupby, repeat, zip_longest
from typing import List, Optional, Tuple

from repro.commands.argv import ParsedArgv, parse_argv
from repro.commands.base import CommandError, Stream, concat_streams, stream_kernel


# ---------------------------------------------------------------------------
# sort
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[ \t]*(-?(?:\d+(?:\.\d*)?|\.\d+))")
#: A KEYDEF: ``F[OPTS][,E[OPTS]]``, field F through field E (default: the line's end).
_KEY_RE = re.compile(r"(\d+)([bdfnr]*)(?:,(\d+)([bdfnr]*))?")
_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)
#: Flags that size sort's buffers and threads and never change its output.
_UNSEEN = {"-S", "-T", "--parallel"}


def _blank_fields(count: int):
    """``line -> index`` just past the first ``count`` blank-led fields (GNU's fields without ``-t``)."""
    return re.compile(r"(?:[ \t]*[^ \t]*){%d}" % count).match


def _key_column(key: str, separator: Optional[str], global_options: str):
    """``(lines -> keys, reverse)`` of one ``-k`` KEYDEF (``""``: the whole line).

    A key with ordering letters of its own ignores the global ones, as GNU's
    does.  A numeric key is its leading number (0 without one); any other is
    the text, blanks stripped (``b``), kept to letters, digits and blanks
    (``d``), folded to upper case (``f``), and compared in code-point order.
    """
    first, last, options = 1, None, global_options
    if key:
        match = _KEY_RE.fullmatch(key)
        if not match or match[1] == "0" or match[3] == "0":
            raise CommandError(f"sort: unsupported key {key!r}")
        first, last = int(match[1]), match[3] and int(match[3])
        options = match[2] + (match[4] or "") or global_options
    if "d" in options and "n" in options:
        raise CommandError("sort: options '-dn' are incompatible")
    if first == 1 and not last:
        texts = lambda lines: lines  # noqa: E731
    elif separator is not None:
        texts = lambda lines: [separator.join(line.split(separator)[first - 1 : last]) for line in lines]  # noqa: E731
    else:
        start, end = _blank_fields(first - 1), _blank_fields(last or 0)
        texts = lambda lines: [line[start(line).end() : last and end(line).end()] for line in lines]  # noqa: E731

    def keys(lines):
        column = texts(lines)
        if "n" in options:  # the number skips leading blanks by itself
            return [float(match[1]) if match else 0.0 for match in map(_NUMBER_RE.match, column)]
        if "b" in options:
            column = [text.lstrip(" \t") for text in column]
        if "d" in options:
            column = [re.sub(r"[^A-Za-z0-9 \t]+", "", text) for text in column]
        if "f" in options:
            column = [text.translate(_ASCII_UPPER) for text in column]
        return column

    return keys, "r" in options


@lru_cache(maxsize=256)
def _sort_plan(arguments: Tuple[str, ...]):
    """sort's flags, read once: ``(columns, reverse, unique, stable, merge)``.

    ``columns`` is None when lines compare whole (no ``-b -d -f -n -k``), else
    one ``(lines -> keys, reverse)`` per key, most significant first.
    """
    argv = parse_argv("sort", arguments)
    separator = argv.value("-t")
    if separator is not None and len(separator) != 1:
        raise CommandError(f"sort: the separator must be one character, not {separator!r}")
    global_options = "".join(flag[1] for flag in ("-b", "-d", "-f", "-n", "-r") if argv.has(flag))
    columns = None
    if argv.has("-b", "-d", "-f", "-n", "-k"):
        columns = [_key_column(key, separator, global_options) for key in argv.values("-k") or [""]]
    return columns, argv.has("-r"), argv.has("-u"), argv.has("-s"), argv.has("-m")


#: Lines of an input's prefix whose distinct count picks the plain sort's path.
_DISTINCT_SAMPLE = 256


def _sorted_lines(lines, columns, reverse: bool, unique: bool, owned: bool = False, stable: bool = False):
    """Sort ``str`` or ``bytes`` lines by ``columns`` (see :func:`_sort_plan`);
    ``unique`` keeps the first line of each key.

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
    if columns is None:
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
    # Positions sort by prebuilt keys, looked up in C, least significant first and
    # stably: GNU's last resort (whole lines, unless -s or -u), then each key.
    keys = [(keys_of(lines), key_reverse) for keys_of, key_reverse in columns]
    if stable or unique:
        order = list(range(len(lines)))
    else:
        order = sorted(range(len(lines)), key=lines.__getitem__, reverse=reverse)
    for column, key_reverse in reversed(keys):
        order.sort(key=column.__getitem__, reverse=key_reverse)
    if unique:
        same = keys[0][0].__getitem__ if len(keys) == 1 else lambda at: [column[at] for column, _ in keys]
        order = [next(group) for _, group in groupby(order, same)]
    return [lines[position] for position in order]


def _merged_lines(streams: List[Stream], columns, reverse: bool, unique: bool, stable: bool) -> Stream:
    """GNU ``sort -m``: a stable k-way merge of the inputs as they are.

    Each step takes the least head by the sort's own comparison (the
    greatest under ``-r``), the earliest input on a tie; an unsorted input
    is not sorted first, so its disorder shows as GNU's does.  ``-u`` drops
    a line whose key equals the line output before it.
    """
    if columns is None:
        merged = heapq.merge(*streams, reverse=reverse)
        return [key for key, _ in groupby(merged)] if unique else list(merged)
    directions = [-1 if key_reverse else 1 for _, key_reverse in columns] + [-1 if reverse else 1]
    if stable or unique:
        directions[-1] = 0

    def compare(row, other):  # rows are ``(key, ..., line)``
        for mine, theirs, direction in zip(row, other, directions):
            if mine != theirs:
                return direction if mine > theirs else -direction
        return 0

    rows = [zip(*[keys_of(stream) for keys_of, _ in columns], stream) for stream in streams]
    merged = heapq.merge(*rows, key=cmp_to_key(compare))
    if unique:
        return [next(group)[-1] for _, group in groupby(merged, lambda row: row[:-1])]
    return [row[-1] for row in merged]


def sort_command(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``sort [-bdfmnrsu] [-k KEYDEF]... [-t SEP] [file...]``.

    Lines whose keys are equal compare whole, in byte order (reversed under
    ``-r``), unless ``-s`` or ``-u``.  Over two or more inputs (the gathered
    ``merge_sort`` of the parallel branches) the concatenation is a fresh
    list, which a plain sort then sorts in place; ``-m`` merges the inputs
    instead of sorting them.
    """
    columns, reverse, unique, stable, merge = _sort_plan(tuple(arguments))
    if merge:
        return _merged_lines(inputs, columns, reverse, unique, stable)
    return _sorted_lines(concat_streams(inputs), columns, reverse, unique, len(inputs) > 1, stable)


def sort_block(arguments: List[str]):
    """Block kernel of :func:`sort_command` for ``-r``/``-u`` only.

    Without a key-affecting flag the lines compare as a whole, and UTF-8 byte
    order is code-point order, so sorting the ``bytes`` lines is the ``str``
    sort.  Anything else (``-m -n -f -d -k``, operands) refuses.
    """
    argv = parse_argv("sort", arguments)
    if argv.operands or argv.flags() - _UNSEEN - {"-r", "-u"}:
        return None
    reverse, unique = argv.has("-r"), argv.has("-u")
    return stream_kernel(lambda lines: _sorted_lines(lines, None, reverse, unique, owned=True))


# ---------------------------------------------------------------------------
# uniq
# ---------------------------------------------------------------------------


def _uniq_key(argv: ParsedArgv, kind):
    """The part of a ``kind`` line uniq compares: past ``-f`` blank-led fields and
    ``-s`` characters, at most ``-w`` characters, folded under ``-i`` (None: all of it)."""
    fields, skipped, width = int(argv.value("-f", "0")), int(argv.value("-s", "0")), argv.value("-w")
    fold = argv.has("-i")
    if not (fields or skipped or width):
        return kind.lower if fold else None
    past_fields = _blank_fields(fields)
    end = int(width) + skipped if width else None

    def key(line):
        part = line[past_fields(line).end() :][skipped:end]
        return part.lower() if fold else part

    return key


def _uniq_lines(arguments: List[str], data, template="%7d %s"):
    """:func:`uniq` over ``str`` lines, or ``bytes`` lines with a ``bytes`` template."""
    argv = parse_argv("uniq", arguments)
    counting, only_duplicates, only_unique = argv.has("-c"), argv.has("-d"), argv.has("-u")
    key = _uniq_key(argv, type(template))
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
    """``uniq [-c] [-d] [-u] [-i] [-f N] [-s N] [-w N]``: collapse adjacent duplicate lines."""
    return _uniq_lines(arguments, concat_streams(inputs))


def uniq_block(arguments: List[str]):
    """Block kernel of :func:`uniq` for ``-c``/``-d``: lines compare whole."""
    argv = parse_argv("uniq", arguments)
    if argv.operands or argv.flags() - {"-c", "-d"}:
        return None
    return stream_kernel(lambda lines: _uniq_lines(arguments, lines, b"%7d %s"))


# ---------------------------------------------------------------------------
# comm
# ---------------------------------------------------------------------------


def comm(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``comm [-1] [-2] [-3] file1 file2`` over two sorted inputs."""
    if len(inputs) < 2:
        raise CommandError("comm requires two input streams")
    argv = parse_argv("comm", arguments)
    shown = [not argv.has("-1"), not argv.has("-2"), not argv.has("-3")]
    indents = ["", "\t" * shown[0], "\t" * (shown[0] + shown[1])]  # a column starts past the shown ones
    first, second = inputs[0], inputs[1]
    out: Stream = []
    i = j = 0
    while i < len(first) or j < len(second):
        if j == len(second) or (i < len(first) and first[i] < second[j]):
            column, line, i = 0, first[i], i + 1
        elif i == len(first) or second[j] < first[i]:
            column, line, j = 1, second[j], j + 1
        else:
            column, line, i, j = 2, first[i], i + 1, j + 1
        if shown[column]:
            out.append(indents[column] + line)
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


#: The escapes of ``paste -d LIST`` (``\\0`` is no delimiter at all).
_PASTE_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "0": ""}


def _alternating(delimiters: List[str], fields) -> str:
    """``fields`` joined by the ``delimiters`` in turn, as ``paste -d LIST`` joins them."""
    pieces = list(fields[:1])
    for field, delimiter in zip(fields[1:], cycle(delimiters)):
        pieces += (delimiter, field)
    return "".join(pieces)


def paste(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``paste [-d LIST] [-s]``: merge corresponding lines of the inputs."""
    argv = parse_argv("paste", arguments)
    items = re.findall(r"\\.|.", argv.value("-d") or "\t", re.S)
    if items[-1] == "\\":
        raise CommandError("paste: delimiter list ends with an unescaped backslash")
    delimiters = [_PASTE_ESCAPES.get(item[1], item[1]) if len(item) == 2 else item for item in items]
    join = delimiters[0].join if len(delimiters) == 1 else partial(_alternating, delimiters)
    if argv.has("-s"):
        return [join(stream) for stream in inputs]
    return list(map(join, zip_longest(*inputs, fillvalue="")))


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
