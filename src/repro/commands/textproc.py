"""Text-processing commands: grep, tr, cut, sed, awk subset, and friends.

The grep/sed/tr paths are the engine's inner loop: under the parallel
backend's batch mode a stateless command is re-invoked once per arriving
chunk, so anything done per *call* (compiling the pattern, parsing the sed
script, building the tr translation table) used to repeat thousands of times
per stream.  Those derivations are now memoized on the argument text
(bounded ``lru_cache``), and the per-line loops hoist attribute lookups into
locals — the classic CPython bound-method tax.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from typing import List, Tuple

from repro.commands.base import (
    CommandError,
    Stream,
    concat_streams,
    flag_value,
    has_flag,
    split_flags,
)


# ---------------------------------------------------------------------------
# grep
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _compiled_grep_pattern(pattern_text: str, flags: int) -> "re.Pattern[str]":
    """Compile (and cache) a grep pattern — batch mode re-enters per chunk."""
    try:
        return re.compile(pattern_text, flags)
    except re.error as exc:
        raise CommandError(f"grep: bad pattern {pattern_text!r}: {exc}") from exc


def grep(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``grep [-i] [-v] [-c] [-E|-F] [-w] [-x] pattern [file...]``."""
    options, operands = split_flags(arguments)
    if not operands:
        raise CommandError("grep requires a pattern")
    pattern_text, *_ = operands
    data = concat_streams(inputs)

    flags = re.IGNORECASE if has_flag(options, "-i") else 0
    fixed = has_flag(options, "-F")
    if fixed:
        pattern_text = re.escape(pattern_text)
    if has_flag(options, "-w"):
        pattern_text = r"\b(?:%s)\b" % pattern_text
    pattern = _compiled_grep_pattern(pattern_text, flags)

    invert = has_flag(options, "-v")
    whole_line = has_flag(options, "-x")

    # Hot loop: one bound-method lookup, not one per line.
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


# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------

_TR_CLASSES = {
    "[:space:]": " \t\n\r\v\f",
    "[:upper:]": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "[:lower:]": "abcdefghijklmnopqrstuvwxyz",
    "[:digit:]": "0123456789",
    "[:alpha:]": "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
    "[:alnum:]": "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
    "[:punct:]": r"""!"#$%&'()*+,-./:;<=>?@[\]^_`{|}~""",
}


@lru_cache(maxsize=256)
def _expand_tr_set(text: str) -> str:
    """Expand character classes, ranges, and escapes in a tr SET."""
    if text in _TR_CLASSES:
        return _TR_CLASSES[text]
    expanded: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            escape = text[index + 1]
            expanded.append({"n": "\n", "t": "\t", "\\": "\\"}.get(escape, escape))
            index += 2
        elif index + 2 < len(text) and text[index + 1] == "-":
            start, end = ord(char), ord(text[index + 2])
            expanded.extend(chr(code) for code in range(start, end + 1))
            index += 3
        else:
            expanded.append(char)
            index += 1
    return "".join(expanded)


def _tr_padded_set2(set1: str, set2: str) -> str:
    """SET2 cut or extended with its last character to SET1's length."""
    return (set2 + set2[-1] * max(0, len(set1) - len(set2)))[: len(set1)]


@lru_cache(maxsize=256)
def _tr_translate_table(set1: str, set2: str):
    """The (cached) str.translate table for ``tr SET1 SET2``."""
    return str.maketrans(set1, _tr_padded_set2(set1, set2))


@lru_cache(maxsize=256)
def _tr_delete_table(set1: str):
    """The (cached) str.translate table for ``tr -d SET1``."""
    return {ord(char): None for char in set1}


def tr(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``tr [-d] [-s] [-c] SET1 [SET2]`` over stdin.

    The newline-sensitive behaviours are modelled on the line stream: when a
    newline is produced inside a line (e.g. ``tr ' ' '\\n'``) the line is
    split into multiple output lines; deleting newlines joins lines.
    """
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
            text = text.translate(_tr_delete_table(set1))
    elif set2:
        if complement:
            members = set(set1)
            replacement = set2[-1]
            text = "".join(
                char if (char in members or char == "\n") else replacement for char in text
            )
        else:
            text = text.translate(_tr_translate_table(set1, set2))

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


def tr_block(arguments: List[str]):
    """Block kernel of :func:`tr`: plain translate or ``-d`` over ASCII sets.

    ``bytes.translate`` equals ``str.translate`` when both sets are ASCII
    (other bytes pass through untouched) and neither holds a newline (the
    line structure cannot change).  ``-c``, ``-s``, a non-ASCII set or a
    newline in a set refuse: those need characters or re-splitting.
    """
    options, operands = split_flags(arguments)
    delete = options == ["-d"]
    if (options and not delete) or len(operands) != (1 if delete else 2):
        return None
    sets = [_expand_tr_set(operand) for operand in operands]
    if not all(chars and chars.isascii() and "\n" not in chars for chars in sets):
        return None
    if delete:
        table, dropped = None, sets[0].encode()
    else:
        set1, set2 = sets
        table = bytes.maketrans(set1.encode(), _tr_padded_set2(set1, set2).encode())
        dropped = b""
    return lambda streams: [
        (block.translate(table, dropped) for block in chain.from_iterable(streams))
    ]


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _cut_slices(spec: str) -> Tuple[Tuple[int, int], ...]:
    """A cut LIST such as ``1,3-5`` or ``2-`` as sorted, disjoint 0-based slices.

    cut prints every selected position once, in input order, whatever the
    order of the list — so overlapping and adjacent ranges merge.
    """
    spans = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        start_text, dash, end_text = piece.partition("-")
        start = int(start_text) if start_text else 1
        end = (int(end_text) if end_text else 10 ** 9) if dash else start
        spans.append((max(start, 1) - 1, end))
    slices: List[Tuple[int, int]] = []
    for low, high in sorted(spans):
        if high <= low:
            continue
        if slices and low <= slices[-1][1]:
            slices[-1] = (slices[-1][0], max(high, slices[-1][1]))
        else:
            slices.append((low, high))
    return tuple(slices)


def cut(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``cut -d DELIM -f LIST`` or ``cut -c LIST``."""
    data = concat_streams(inputs)
    char_spec = flag_value(arguments, "-c")
    field_spec = flag_value(arguments, "-f")
    delimiter = flag_value(arguments, "-d", "\t") or "\t"
    if delimiter.startswith('"') and delimiter.endswith('"') and len(delimiter) >= 2:
        delimiter = delimiter[1:-1]
    if not (char_spec or field_spec):
        raise CommandError("cut requires -c or -f")

    slices = _cut_slices(char_spec or field_spec)
    if char_spec:
        if len(slices) == 1:
            ((low, high),) = slices
            return [line[low:high] for line in data]
        return ["".join([line[low:high] for low, high in slices]) for line in data]

    # A line without the delimiter passes whole; nothing past the last
    # selected field needs splitting.
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
# sed (substitution subset)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _parse_sed_script(script: str):
    """Parse an ``s`` or ``y`` sed command with an arbitrary delimiter."""
    if not script or script[0] not in "sy":
        raise CommandError(f"unsupported sed script {script!r}")
    kind = script[0]
    if len(script) < 2:
        raise CommandError(f"malformed sed script {script!r}")
    delimiter = script[1]
    parts: List[str] = []
    current: List[str] = []
    index = 2
    while index < len(script):
        char = script[index]
        if char == "\\" and index + 1 < len(script) and script[index + 1] == delimiter:
            current.append(delimiter)
            index += 2
            continue
        if char == delimiter:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    parts.append("".join(current))
    if len(parts) < 2:
        raise CommandError(f"malformed sed script {script!r}")
    pattern, replacement = parts[0], parts[1]
    flags = parts[2] if len(parts) > 2 else ""
    return kind, pattern, replacement, flags


def sed(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``sed [-e] 's/pat/repl/[g]'`` (also ``y///`` and custom delimiters)."""
    data = concat_streams(inputs)
    scripts: List[str] = []
    skip_next = False
    operands_seen = 0
    for index, argument in enumerate(arguments):
        if skip_next:
            scripts.append(argument)
            skip_next = False
            continue
        if argument == "-e":
            skip_next = True
            continue
        if argument.startswith("-"):
            if argument == "-n":
                raise CommandError("sed -n is not supported (side-effectful in PaSh)")
            continue
        if operands_seen == 0:
            scripts.append(argument)
            operands_seen += 1
        # Remaining operands would be files; the executor resolves those into
        # input streams, so they are ignored here.
    if not scripts:
        raise CommandError("sed requires a script")

    out = list(data)
    for script in scripts:
        kind, pattern, replacement, flags = _parse_sed_script(script)
        if kind == "y":
            table = _sed_y_table(pattern, replacement)
            out = [line.translate(table) for line in out]
            continue
        count = 0 if "g" in flags else 1
        compiled, python_replacement = _compiled_sed_substitution(pattern, replacement)
        substitute = compiled.sub
        out = [substitute(python_replacement, line, count) for line in out]
    return out


@lru_cache(maxsize=256)
def _compiled_sed_substitution(pattern: str, replacement: str):
    """Compile (and cache) an ``s///`` command's regex and replacement text."""
    compiled = re.compile(pattern)
    python_replacement = re.sub(r"\\(\d)", r"\\\1", replacement.replace("&", "\\g<0>"))
    return compiled, python_replacement


@lru_cache(maxsize=256)
def _sed_y_table(pattern: str, replacement: str):
    """The (cached) translation table of a ``y///`` command."""
    return str.maketrans(pattern, replacement)


# ---------------------------------------------------------------------------
# awk (tiny print-oriented subset)
# ---------------------------------------------------------------------------

_AWK_PRINT_RE = re.compile(r"^\s*\{\s*print\s*(?P<body>[^}]*)\}\s*$")


def awk(arguments: List[str], inputs: List[Stream]) -> Stream:
    """A tiny awk subset: ``awk '{print $N[, $M...]}'`` and ``{print}``.

    The paper treats awk as unparallelizable; the implementation exists so
    that sequential baselines of the Unix50 pipelines still run in-process.
    """
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


# ---------------------------------------------------------------------------
# Miscellaneous stateless text helpers
# ---------------------------------------------------------------------------


def fold(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``fold [-w N]``: wrap lines at N characters (default 80)."""
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


def rev(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Reverse the characters of every line."""
    return [line[::-1] for line in concat_streams(inputs)]


def col(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``col -b``: strip backspaces (modelled as carriage-return removal)."""
    return [line.replace("\b", "").replace("\r", "") for line in concat_streams(inputs)]


def iconv(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``iconv -c``: drop non-ASCII characters (sufficient for the pipelines)."""
    return [
        line.encode("ascii", errors="ignore").decode("ascii")
        for line in concat_streams(inputs)
    ]


def strings(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Keep printable runs of length >= 4 (approximation of strings(1))."""
    out: Stream = []
    for line in concat_streams(inputs):
        for match in re.finditer(r"[ -~]{4,}", line):
            out.append(match.group(0))
    return out


def expand(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Convert tabs to spaces."""
    return [line.expandtabs(8) for line in concat_streams(inputs)]


def gunzip(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Pass-through stand-in for decompression of synthetic text inputs."""
    return concat_streams(inputs)


def xargs(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``xargs [-n N] command [args...]``.

    Groups input lines into batches of N (default: all) and invokes the
    wrapped command once per batch via the standard registry.  The wrapped
    command receives the batch as extra operands and no stdin.
    """
    from repro.commands.registry import standard_registry

    batch_text = None
    rest: List[str] = []
    index = 0
    while index < len(arguments):
        argument = arguments[index]
        if argument == "-n" and index + 1 < len(arguments):
            batch_text = arguments[index + 1]
            index += 2
            continue
        if argument.startswith("-n") and argument != "-n":
            batch_text = argument[2:]
            index += 1
            continue
        rest.append(argument)
        index += 1
    command_tokens = [token for token in rest if not (token.startswith("-") and token != "-")]
    if not command_tokens:
        raise CommandError("xargs requires a command")
    command = command_tokens[0]
    command_start = rest.index(command)
    command_arguments = rest[command_start + 1 :]
    data = concat_streams(inputs)
    registry = standard_registry()

    if batch_text is None:
        batches = [data] if data else []
    else:
        size = int(batch_text)
        batches = [data[index : index + size] for index in range(0, len(data), size)]

    out: Stream = []
    for batch in batches:
        out.extend(registry.run(command, command_arguments + batch, []))
    return out
