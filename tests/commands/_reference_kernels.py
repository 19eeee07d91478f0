"""The per-character and per-line kernels the bulk rewrites replaced.

These are the implementations ``repro.commands`` shipped before its hot
kernels became bulk operations (``translate``, one compiled ``re.sub``,
``groupby``, ``zip_longest``, one comprehension compiled per ``awk``
program), moved here verbatim — and ``sort -m``'s one-head-a-step merge,
written the same way when the merge stopped being a sort.  They are slow and obviously right, which is
what an oracle should be: ``test_bulk_kernels.py`` and
``test_awk_and_sort.py`` pin every rewritten command to them.  Nothing under
``src/`` may import this module.
"""

import re
from itertools import groupby
from typing import List, Tuple

from _reference_argv import flag_value, has_flag, split_flags
from repro.commands.base import CommandError, concat_streams, encode_block
from repro.commands.textproc import _cut_slices, _expand_tr_set

Stream = List[str]


# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------


def _tr_padded_set2(set1: str, set2: str) -> str:
    return (set2 + set2[-1] * max(0, len(set1) - len(set2)))[: len(set1)]


def tr(arguments: List[str], inputs: List[Stream]) -> Stream:
    options, operands = split_flags(arguments)
    data = concat_streams(inputs)
    delete = has_flag(options, "-d")
    squeeze = has_flag(options, "-s")
    complement = has_flag(options, "-c")

    set1 = _expand_tr_set(operands[0]) if operands else ""
    set2 = _expand_tr_set(operands[1]) if len(operands) > 1 else ""

    text = "\n".join(data)
    had_input = bool(data)

    if delete:
        if complement:
            keep = set(set1) | {"\n"}
            text = "".join(char for char in text if char in keep)
        else:
            text = text.translate({ord(char): None for char in set1})
    elif set2:
        if complement:
            members = set(set1)
            replacement = set2[-1]
            text = "".join(
                char if (char in members or char == "\n") else replacement for char in text
            )
        else:
            text = text.translate(str.maketrans(set1, _tr_padded_set2(set1, set2)))

    if squeeze:
        squeeze_set = set(set2) if set2 else set(set1)
        squeezed: List[str] = []
        previous = None
        for char in text:
            if char in squeeze_set and char == previous:
                continue
            squeezed.append(char)
            previous = char
        text = "".join(squeezed)
        if "\n" in squeeze_set and text.endswith("\n"):
            # The stream's implicit final newline extends this trailing run,
            # so the run squeezes into it instead of leaving an empty line.
            text = text[:-1]

    if not had_input:
        return []
    # The joined text stands for the stream without its final newline, so
    # splitting on newlines maps back to exactly the output lines.
    return text.split("\n")


# ---------------------------------------------------------------------------
# grep, cut (comprehensions then as now; kept so the plans have an oracle)
# ---------------------------------------------------------------------------


def grep(arguments: List[str], inputs: List[Stream]) -> Stream:
    options, operands = split_flags(arguments)
    pattern_text, *_ = operands
    data = concat_streams(inputs)

    flags = re.IGNORECASE if has_flag(options, "-i") else 0
    fixed = has_flag(options, "-F")
    if fixed:
        pattern_text = re.escape(pattern_text)
    if has_flag(options, "-w"):
        pattern_text = r"\b(?:%s)\b" % pattern_text
    pattern = re.compile(pattern_text, flags)

    invert = has_flag(options, "-v")
    whole_line = has_flag(options, "-x")

    probe = pattern.fullmatch if whole_line else pattern.search
    if invert:
        selected = [line for line in data if probe(line) is None]
    else:
        selected = [line for line in data if probe(line) is not None]
    if has_flag(options, "-c"):
        return [str(len(selected))]
    if has_flag(options, "-o"):
        out: Stream = []
        append = out.append
        finditer = pattern.finditer
        for line in data:
            for match in finditer(line):
                if bool(match.group(0)) != invert or not invert:
                    append(match.group(0))
        return out
    return selected


def cut(arguments: List[str], inputs: List[Stream]) -> Stream:
    data = concat_streams(inputs)
    char_spec = flag_value(arguments, "-c")
    field_spec = flag_value(arguments, "-f")
    delimiter = flag_value(arguments, "-d", "\t") or "\t"
    if delimiter.startswith('"') and delimiter.endswith('"') and len(delimiter) >= 2:
        delimiter = delimiter[1:-1]

    slices = _cut_slices(char_spec or field_spec)
    if char_spec:
        if len(slices) == 1:
            ((low, high),) = slices
            return [line[low:high] for line in data]
        return ["".join([line[low:high] for low, high in slices]) for line in data]

    limit = slices[-1][1] if slices else 1
    join = delimiter.join
    if len(slices) == 1:
        ((low, high),) = slices
        return [
            join(fields[low:high]) if len(fields := line.split(delimiter, limit)) > 1 else line
            for line in data
        ]
    return [
        join([field for low, high in slices for field in fields[low:high]])
        if len(fields := line.split(delimiter, limit)) > 1
        else line
        for line in data
    ]


# ---------------------------------------------------------------------------
# fold, wc, head
# ---------------------------------------------------------------------------


def fold(arguments: List[str], inputs: List[Stream]) -> Stream:
    width_text = flag_value(arguments, "-w", "80")
    width = int(width_text) if width_text else 80
    out: Stream = []
    for line in concat_streams(inputs):
        if not line:
            out.append("")
            continue
        for start in range(0, len(line), width):
            out.append(line[start : start + width])
    return out


def wc(arguments: List[str], inputs: List[Stream]) -> Stream:
    data = concat_streams(inputs)
    lines = len(data)
    words = sum(len(line.split()) for line in data)
    characters = sum(len(encode_block([line])) for line in data)  # bytes, as under LC_ALL=C

    want_lines = has_flag(arguments, "-l")
    want_words = has_flag(arguments, "-w")
    want_chars = has_flag(arguments, "-c") or has_flag(arguments, "-m")
    if not (want_lines or want_words or want_chars):
        want_lines = want_words = want_chars = True

    fields: List[str] = []
    if want_lines:
        fields.append(str(lines))
    if want_words:
        fields.append(str(words))
    if want_chars:
        fields.append(str(characters))
    return [" ".join(fields)]


def head(arguments: List[str], inputs: List[Stream]) -> Stream:
    count_text = flag_value(arguments, "-n", "10")
    count = int(count_text) if count_text else 10
    return concat_streams(inputs)[:count]


# ---------------------------------------------------------------------------
# sort, uniq, paste, nl
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^\s*(-?\d+(?:\.\d+)?)")


def _numeric_key(text: str) -> float:
    match = _NUMBER_RE.match(text)
    if not match:
        return 0.0
    return float(match.group(1))


def _sort_key_function(arguments: List[str]):
    numeric = has_flag(arguments, "-n")
    ignore_case = has_flag(arguments, "-f")
    dictionary = has_flag(arguments, "-d")
    key_spec = flag_value(arguments, "-k")
    if not (numeric or ignore_case or dictionary or key_spec):
        return None
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


def _merge_heads(inputs: List[Stream], key, reverse: bool) -> Stream:
    """GNU ``sort -m``, one line a step: the least head (greatest under
    ``-r``), the earliest input on a tie, inputs taken as they are."""
    key = key or (lambda line: line)
    positions = [0] * len(inputs)
    merged = []
    while True:
        best = None
        for index, stream in enumerate(inputs):
            if positions[index] == len(stream):
                continue
            if best is None:
                best = index
                continue
            mine, theirs = key(stream[positions[index]]), key(inputs[best][positions[best]])
            if (mine > theirs) if reverse else (mine < theirs):
                best = index
        if best is None:
            return merged
        merged.append(inputs[best][positions[best]])
        positions[best] += 1


def sort_command(arguments: List[str], inputs: List[Stream]) -> Stream:
    key = _sort_key_function(arguments)
    if has_flag(arguments, "-m"):
        merged = _merge_heads(inputs, key, has_flag(arguments, "-r"))
    else:
        merged = sorted(concat_streams(inputs), key=key, reverse=has_flag(arguments, "-r"))
    if has_flag(arguments, "-u"):
        return [next(group) for _, group in groupby(merged, key)]
    return merged


def uniq(arguments: List[str], inputs: List[Stream]) -> Stream:
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


def paste(arguments: List[str], inputs: List[Stream]) -> Stream:
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
    out: Stream = []
    counter = 0
    for line in concat_streams(inputs):
        if line.strip():
            counter += 1
            out.append(f"{counter:6d}\t{line}")
        else:
            out.append("")
    return out


# ---------------------------------------------------------------------------
# awk (the print body re-split for every line; ``-F ' '`` split on one blank)
# ---------------------------------------------------------------------------

_AWK_PRINT_RE = re.compile(r"^\s*\{\s*print\s*(?P<body>[^}]*)\}\s*$")


def awk(arguments: List[str], inputs: List[Stream]) -> Stream:
    separator = None
    program = None
    index = 0
    while index < len(arguments):
        argument = arguments[index]
        if argument == "-F" and index + 1 < len(arguments):
            separator = arguments[index + 1]
            index += 2
            continue
        if argument.startswith("-F") and len(argument) > 2:
            separator = argument[2:]
            index += 1
            continue
        if argument.startswith("-") and argument != "-":
            index += 1
            continue
        if program is None:
            program = argument
        index += 1
    if program is None:
        raise CommandError("awk requires a program")
    data = concat_streams(inputs)
    match = _AWK_PRINT_RE.match(program)
    if not match:
        raise CommandError(f"unsupported awk program {program!r}")
    body = match.group("body").strip()
    out: Stream = []
    for line in data:
        fields = line.split(separator) if separator else line.split()
        if not body:
            out.append(line)
            continue
        pieces: List[str] = []
        for token in body.split(","):
            token = token.strip()
            if token == "$0":
                pieces.append(line)
            elif token.startswith("$"):
                index = int(token[1:])
                pieces.append(fields[index - 1] if 0 < index <= len(fields) else "")
            elif token.startswith('"') and token.endswith('"'):
                pieces.append(token[1:-1])
            else:
                raise CommandError(f"unsupported awk expression {token!r}")
        out.append(" ".join(pieces))
    return out
