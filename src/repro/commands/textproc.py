"""Text-processing commands: grep, tr, cut, sed, awk subset, and friends.

The grep/sed/tr paths are the engine's inner loop: under the parallel
backend's batch mode a stateless command is re-invoked once per arriving
chunk, so anything done per *call* (compiling the pattern, parsing the sed
script, building the tr translation table) used to repeat thousands of times
per stream.  Those derivations are one cached *plan* per argument vector
(bounded ``lru_cache``) that the ``str`` function and the ``bytes`` block
kernel both apply, and every loop over characters or lines runs in C.
"""

from __future__ import annotations

import re
import string
import sys
from functools import lru_cache, partial
from itertools import chain, filterfalse
from typing import Dict, List, Optional, Tuple

from repro.commands.base import (
    BlockMap,
    CommandError,
    Stream,
    block_map_kernel,
    concat_streams,
    decode_text,
    encode_text,
    flag_value,
    has_flag,
    split_flags,
)


# ---------------------------------------------------------------------------
# grep
# ---------------------------------------------------------------------------


#: POSIX bracket classes, in Python's class syntax.
_BRACKET_CLASSES = {
    "alpha": "a-zA-Z", "digit": "0-9", "alnum": "0-9a-zA-Z", "upper": "A-Z", "lower": "a-z",
    "space": " \\t\\n\\r\\f\\v", "blank": " \\t", "punct": re.escape(string.punctuation),
    "xdigit": "0-9A-Fa-f", "cntrl": "\\x00-\\x1f\\x7f", "print": " -~", "graph": "!-~",
}
#: BRE escapes that are operators (GNU's, as ``grep`` reads them).
_BRE_OPERATORS = {"(": "(", ")": ")", "|": "|", "{": "{", "}": "}", "+": "+", "?": "?",
                  "<": r"\b(?=\w)", ">": r"\b(?<=\w)"}


def _bracket(pattern: str, start: int) -> Tuple[str, int]:
    """The bracket expression at ``pattern[start] == "["`` in Python syntax, and its end.

    Inside brackets a backslash is literal and a leading ``]`` is a member.
    """
    index = start + 1
    out = ["["]
    if pattern[index : index + 1] == "^":
        out.append("^")
        index += 1
    first = True
    while index < len(pattern):
        char = pattern[index]
        if char == "]" and not first:
            out.append("]")
            return "".join(out), index + 1
        if char == "[" and pattern[index + 1 : index + 2] == ":":
            close = pattern.find(":]", index + 2)
            name = pattern[index + 2 : close] if close > 0 else ""
            if name not in _BRACKET_CLASSES:
                raise re.error(f"invalid character class {name!r}")
            out.append(_BRACKET_CLASSES[name])
            index = close + 2
        else:
            out.append("\\" + char if char in "\\[]&~|" else char)
            index += 1
        first = False
    raise re.error("unterminated [")


def bre_to_python(pattern: str) -> str:
    """A POSIX basic regular expression (``grep`` without ``-E``) in Python syntax.

    ``{ } + ? | ( )`` are literal and their backslashed forms the operators;
    ``*`` is literal where it has nothing to repeat (first, or right after
    ``\\(``, ``\\|`` or a leading ``^``); ``^`` and ``$`` anchor only at the
    ends of the pattern or of a ``\\(``/``\\|`` branch.  A pattern with none
    of these characters comes out as it went in.
    """
    out: List[str] = []
    index = 0
    at_start = True  # where a ``*`` is literal and a ``^`` anchors
    while index < len(pattern):
        char = pattern[index]
        starts = False
        if char == "\\":
            if index + 1 == len(pattern):
                raise re.error("trailing backslash")
            escaped = pattern[index + 1]
            index += 2
            if escaped in _BRE_OPERATORS:
                out.append(_BRE_OPERATORS[escaped])
                starts = escaped in "(|"
            elif escaped.isdigit() or escaped in "wWsSbB":
                out.append("\\" + escaped)
            else:
                out.append(re.escape(escaped))
        elif char == "[":
            text, index = _bracket(pattern, index)
            out.append(text)
        else:
            index += 1
            if char == "^":
                out.append("^" if at_start else "\\^")
                starts = at_start
            elif char == "$":
                rest = pattern[index : index + 2]
                out.append("$" if index == len(pattern) or rest in ("\\)", "\\|") else "\\$")
            elif char == "*":
                if at_start:
                    out.append("\\*")
                elif out[-1] != "*":  # ``a**`` is ``a*``
                    out.append("*")
            elif char in "{}+?|()":
                out.append("\\" + char)
            else:
                out.append(char)
        at_start = starts
    return "".join(out)


#: What in a Python pattern may match a newline or see past a line's ends: a negated class, an
#: escaped letter but ``\\w \\d \\S \\b``, a control character (a range end), ``(?s)``, lookarounds.
_CROSSES_LINES = re.compile(r"\[\^|\\[^wdSb\W]|[\x00-\x0a]|\(\?")
_SAMPLE_SHIFT, _DENSE_SHARE = 6, 4  # :func:`_scanner`'s sample, a 64th of a block, and a quarter


def _scanner(locator, invert: bool, per_line):
    """``block -> block`` keeping each line that holds a hit (``-v``: the others).

    ``locator(block)`` maps a position to the first hit at or after it (-1: none).  The scan and
    the line path break even near 18 % of lines holding a hit, and at 100 % the scan takes 3-4
    times as long (``benchmarks/test_bench_micro_grep_scan.py``), so a block with a hit in over a
    quarter of the lines of its first 64th goes ``per_line`` past it (at 12 % hits, 4 blocks in 221).
    """

    def scan(block: bytes) -> bytes:
        locate, find, rfind = locator(block), block.find, block.rfind
        pieces, kept, size = [], 0, len(block)
        position, sample = locate(0), size >> _SAMPLE_SHIFT
        while 0 <= position < size:
            start, end = rfind(b"\n", 0, position) + 1, find(b"\n", position) + 1
            pieces.append(block[kept:start] if invert else block[start:end])
            if end > sample:
                sample = size
                if _DENSE_SHARE * len(pieces) > block.count(b"\n", 0, end):
                    return b"".join(pieces + [per_line(block[end:])])
            kept, position = end, locate(end)
        return b"".join(pieces + [block[kept:]] if invert else pieces)

    return scan


@lru_cache(maxsize=256)
def _grep_plan(arguments: Tuple[str, ...], binary: bool = False):
    """A grep invocation, stated once for both faces: ``(pattern, probe, select, face)``.

    ``select`` keeps the matching (``-v``: the other) ``str`` lines of a list
    (``bytes`` lines when ``binary``).  ``face``, the bytes :class:`BlockMap`,
    selects from the whole block in C (``bytes.find`` for a fixed string, else
    an ``re.M`` search) unless the pattern may match a newline or anchors at
    a line's start; it is exact on any block for a fixed string without ``-i``/``-w``.
    """
    options, operands = split_flags(arguments)
    if not operands:
        raise CommandError("grep requires a pattern")
    unknown = set("".join(option[1:] for option in options if option != "-e")) - set("ivcoEFwxn")
    if unknown or options.count("-e") > 1:
        raise CommandError(f"grep: unsupported option(s) {' '.join(options)}")
    pattern_text = operands[0]
    fixed = has_flag(options, "-F") or not set("\\[].*^$+?{}|()").intersection(pattern_text)  # either syntax
    fold, whole_line, word = (has_flag(options, flag) for flag in ("-i", "-x", "-w"))
    try:
        if has_flag(options, "-F"):
            pattern_text = re.escape(pattern_text)
        elif not has_flag(options, "-E"):
            pattern_text = bre_to_python(pattern_text)
        by_line = whole_line or pattern_text.startswith("^") or _CROSSES_LINES.search(pattern_text)
        if word:  # no word character on either side
            pattern_text = r"(?<!\w)(?:%s)(?!\w)" % pattern_text
        flags = re.IGNORECASE if fold else 0
        pattern = re.compile(encode_text(pattern_text) if binary else pattern_text, flags)
    except re.error as exc:
        raise CommandError(f"grep: bad pattern {pattern_text!r}: {exc}") from exc
    probe = pattern.fullmatch if whole_line else pattern.search
    keep = filterfalse if (invert := has_flag(options, "-v")) else filter  # the loop runs in C
    select = lambda data: list(keep(probe, data))  # noqa: E731
    if not binary:
        return pattern, probe, select, None
    on_text, exact = _grep_plan(arguments)[2], fixed and not (fold or word)
    per_line = block_map_kernel(select, on_text, exact)
    if by_line:
        return pattern, probe, select, per_line
    if fixed and not word:
        needle = encode_text(operands[0]).lower() if fold else encode_text(operands[0])
        locator = lambda block: partial((block.lower() if fold else block).find, needle)  # noqa: E731
    else:
        search = re.compile(pattern.pattern, flags | re.M).search
        locator = lambda block: lambda at: hit.start() if (hit := search(block, at)) else -1  # noqa: E731
    return pattern, probe, select, BlockMap(_scanner(locator, invert, per_line.on_block), on_text, exact)


def grep(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``grep [-i] [-v] [-c] [-o] [-n] [-E|-F] [-w] [-x] pattern [file...]``.

    The pattern is a basic regular expression unless ``-E`` (extended) or
    ``-F`` (a fixed string) is given; any other option is refused.
    """
    pattern, probe, select, _ = _grep_plan(tuple(arguments))
    data = concat_streams(inputs)
    if has_flag(arguments, "-c"):
        return [str(len(select(data)))]
    invert, numbered = has_flag(arguments, "-v"), has_flag(arguments, "-n")
    if has_flag(arguments, "-o"):  # -v: then only the empty matches print, as they always did
        found = [(n, m[0]) for n, line in enumerate(data, 1) for m in pattern.finditer(line) if not (invert and m[0])]
    elif numbered:
        found = [(n, line) for n, line in enumerate(data, 1) if (probe(line) is None) is invert]
    else:
        return select(data)
    return ["%d:%s" % pair if numbered else pair[1] for pair in found]


def egrep(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``egrep``: ``grep -E``."""
    return grep(["-E", *arguments], inputs)


def fgrep(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``fgrep``: ``grep -F``."""
    return grep(["-F", *arguments], inputs)


def grep_block(arguments: List[str]):
    """Block kernel of :func:`grep`: the plan's bytes face, block by block.

    A ``bytes`` pattern equals the ``str`` one on ASCII data unless it is not
    ASCII itself or holds ``\\s`` (``\\x1c``-``\\x1f`` for ``str``).  ``-c``
    counts the lines the face keeps; ``-o`` and ``-n`` change the output's shape.
    """
    options, operands = split_flags(arguments)
    pattern = operands[0] if operands else "\\s"
    if set("".join(options)) - set("-ivcEFwx") or not pattern.isascii() or "\\s" in pattern.lower():
        return None
    face = _grep_plan(tuple(arguments), True)[3]
    if not has_flag(options, "-c"):
        return face
    return lambda streams: [[b"%d\n" % sum(block.count(b"\n") for block in face(streams)[0])]]


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


#: One SET character: an octal ``\\NNN`` (at most ``\\377``, as GNU reads it),
#: another escape, or the character itself.
_TR_CHAR = re.compile(r"\\([0-3][0-7]{2}|[0-7]{1,2})|\\(.)|(.)", re.DOTALL)
_TR_ESCAPES = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t", "v": "\v"}


def _tr_char(text: str, index: int) -> Tuple[str, int]:
    """The character a SET spells at ``index`` and the index past it (``\\NNN``
    is the byte NNN as the stream codec decodes it on its own)."""
    octal, escape, plain = (match := _TR_CHAR.match(text, index)).groups()
    if octal:
        return decode_text(bytes([int(octal, 8)])), match.end()
    return _TR_ESCAPES.get(escape, escape) if escape else plain, match.end()


@lru_cache(maxsize=256)
def _expand_tr_set(text: str) -> str:
    """Expand character classes, ranges, and escapes in a tr SET."""
    if text in _TR_CLASSES:
        return _TR_CLASSES[text]
    expanded: List[str] = []
    index = 0
    while index < len(text):
        char, index = _tr_char(text, index)
        if index + 1 < len(text) and text[index] == "-":
            end, index = _tr_char(text, index + 1)
            expanded.extend(map(chr, range(ord(char), ord(end) + 1)))
        else:
            expanded.append(char)
    return "".join(expanded)


class _TrTable(dict):
    """A ``str.translate`` table computed on demand from ``image(code)``: a dict cannot say
    "every other character" (``-c``), a memoized ``__missing__`` can, and the loop stays in C."""

    def __init__(self, image) -> None:
        super().__init__()
        self.image = image

    def __missing__(self, code: int):
        self[code] = self.image(code)
        return self[code]


def _squeezer(squeezed: str, binary: bool):
    """``text -> text`` squeezing every run of a ``squeezed`` character to one."""
    encode = encode_text if binary else (lambda text: text)
    if len(squeezed) > 1:
        pattern = r"([%s])\1+" % "".join(map(re.escape, squeezed))
        return partial(re.compile(encode(pattern)).sub, encode(r"\1"))
    single, double = encode(squeezed), encode(squeezed * 2)

    def squeeze(text):  # ``replace`` halves every run in C: a run of n is gone in log n passes
        while double in text:
            text = text.replace(double, single)
        return text

    return squeeze


@lru_cache(maxsize=256)
def tr_plan(arguments: Tuple[str, ...]):
    """A tr invocation, stated once: ``(on_str, on_bytes, squeezes_newline)``.

    Both faces delete or translate through a table built from the one
    ``image(code)``, then squeeze.  ``-c`` never touches a newline (the line
    model).  ``on_bytes`` maps a line block and is None when bytes are not
    characters for these sets: a non-ASCII set; ``-c`` translating without
    squeezing its replacement (a multi-byte character would leave several);
    SET1 deleting or translating a newline (a block's last newline is the
    stream's implicit one, which the ``str`` face never sees).
    """
    options, operands = split_flags(arguments)
    delete, squeeze, complement = (has_flag(options, flag) for flag in ("-d", "-s", "-c"))
    set1 = _expand_tr_set(operands[0]) if operands else ""
    set2 = _expand_tr_set(operands[1]) if len(operands) > 1 else ""
    squeezed = (set2 or set1) if squeeze else ""
    if complement:
        kept = set(map(ord, set1 + "\n"))
        outside = ord(set2[-1]) if set2 and not delete else None
        image = lambda code: code if code in kept else outside  # noqa: E731
    else:
        # SET2 is cut, or extended with its last character, to SET1's length.
        padded = (set2 + set2[-1:] * len(set1))[: len(set1)]
        listed = dict.fromkeys(map(ord, set1)) if delete else dict(zip(map(ord, set1), map(ord, padded)))
        image = lambda code: listed.get(code, code)  # noqa: E731

    def face(binary: bool):
        squeeze_runs = _squeezer(squeezed, binary) if squeezed else None
        table = (_TrTable(image),)
        if binary:  # the 256-entry table, and the bytes it deletes
            codes = [image(code) for code in range(256)]
            table = bytes(code or 0 for code in codes), bytes(c for c in range(256) if codes[c] is None)

        def apply(text):
            if delete or set2:
                text = text.translate(*table)
            return squeeze_runs(text) if squeeze_runs else text

        return apply

    exact = (
        (set1 + set2).isascii()
        and not (complement and set2 and not delete and set2[-1] not in squeezed)
        and not ((delete or set2) and not complement and "\n" in set1)
    )
    return face(False), face(True) if exact else None, "\n" in squeezed


def tr(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``tr [-d] [-s] [-c] SET1 [SET2]`` over stdin.

    The newline-sensitive behaviours are modelled on the line stream: when a
    newline is produced inside a line (e.g. ``tr ' ' '\\n'``) the line is
    split into multiple output lines; deleting newlines joins lines.
    """
    data = concat_streams(inputs)
    if not data:
        return []
    on_str, _, squeezes_newline = tr_plan(tuple(arguments))
    text = on_str("\n".join(data))
    if squeezes_newline and text.endswith("\n"):
        # The stream's implicit final newline extends this trailing run,
        # so the run squeezes into it instead of leaving an empty line.
        text = text[:-1]
    # The joined text stands for the stream without its final newline, so
    # splitting on newlines maps back to exactly the output lines.
    return text.split("\n")


def tr_block(arguments: List[str]):
    """Block kernel of :func:`tr`: the plan's ``bytes`` face, block by block.

    A squeezed newline run that spans two blocks of the stream ends the first, so the second
    drops its leading newline (``emitted`` is the carry); any other tr is a :class:`BlockMap`.
    """
    _, on_bytes, squeezes_newline = tr_plan(tuple(arguments))
    if on_bytes is None:
        return None
    if not squeezes_newline:
        return BlockMap(on_bytes, lambda lines: tr(arguments, [lines]), exact=True)

    def blocks(streams):
        emitted = False
        for block in chain.from_iterable(streams):
            block = on_bytes(block)
            if emitted and squeezes_newline and block.startswith(b"\n"):
                block = block[1:]
            emitted = emitted or bool(block)
            yield block

    return lambda streams: [blocks(streams)]


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


_OPEN_END = 10 ** 9  # of a range such as ``2-``
#: Possessive quantifiers (Python 3.11): the same matches, no backtracking state (README: `cpu_s` −11 %).
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""


@lru_cache(maxsize=256)
def _cut_slices(spec: str, complement: bool = False) -> Tuple[Tuple[int, int], ...]:
    """A cut LIST such as ``1,3-5`` or ``2-`` as sorted, disjoint 0-based slices.

    cut prints every selected position once, in input order, whatever the order of
    the list — so overlapping and adjacent ranges merge (``complement``: the others).
    """
    spans = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        start_text, dash, end_text = piece.partition("-")
        start = int(start_text) if start_text else 1
        end = (int(end_text) if end_text else _OPEN_END) if dash else start
        spans.append((max(start, 1) - 1, end))
    slices: List[Tuple[int, int]] = []
    for low, high in sorted(spans):
        if high <= low:
            continue
        if slices and low <= slices[-1][1]:
            slices[-1] = (slices[-1][0], max(high, slices[-1][1]))
        else:
            slices.append((low, high))
    if complement:
        edges = [0] + [edge for span in slices for edge in span] + [_OPEN_END]
        slices = [(low, high) for low, high in zip(edges[::2], edges[1::2]) if low < high]
    return tuple(slices)


def _cut_options(arguments: Tuple[str, ...]) -> Dict[str, str]:
    """cut's options as getopt reads them (``-sd,`` is ``-s -d ,``); any other is refused."""
    import getopt  # here, not at import time: it loads gettext (1.8 ms), and only cut needs it
    try:
        pairs, _ = getopt.gnu_getopt(arguments, "c:d:f:s", ["complement", "only-delimited"])
    except getopt.GetoptError as exc:
        raise CommandError(f"cut: {exc}") from exc
    return {flag.replace("--only-delimited", "-s"): value for flag, value in pairs}


def _fields_pattern(delimiter: str, low: int, high: int):
    """``cut -f`` of fields ``low + 1`` to ``high`` as one pattern whose ``findall`` over a block
    yields each output line: the fields, a line without the delimiter, or nothing (too few fields)."""
    possessive, split = _POSSESSIVE, re.escape(delimiter)
    field = "[^%s\\n]*%s" % (split, possessive)
    more = "*" if high >= _OPEN_END else "{0,%d}" % (high - low - 1)
    fields = "(?:%s%s)%s%s%s" % (field, split, more, possessive, field)
    if low:  # past ``low`` fields; else at the line's start: all of it, or nothing
        fields = "(?:(?:%s%s){%d})?%s((?<=%s)%s|%s(?=\\n)|)" % (field, split, low, possessive, split, fields, field)
    return re.compile(("%s.*%s\\n" % (fields if low else "(%s)" % fields, possessive)).encode("ascii"))


def _field_selector(delimiter, slices):
    """``lines -> lines`` of ``cut -f`` on ``str`` or ``bytes`` lines: a line without the
    delimiter passes whole, and nothing past the last selected field is split."""
    limit = slices[-1][1] if slices else 1
    if len(slices) == 1 and slices[0][0] == 0:  # a prefix: slice it off the line
        if limit == 1:
            return lambda data: [line.partition(delimiter)[0] for line in data]
        return lambda data: [
            line[: -len(fields[-1]) - len(delimiter)] if len(fields := line.split(delimiter, limit)) > limit else line
            for line in data
        ]
    join = delimiter.join
    if len(slices) == 1:
        ((low, high),) = slices
        return lambda data: [
            join(fields[low:high]) if len(fields := line.split(delimiter, limit)) > 1 else line
            for line in data
        ]
    return lambda data: [
        join([field for low, high in slices for field in fields[low:high]])
        if len(fields := line.split(delimiter, limit)) > 1
        else line
        for line in data
    ]


@lru_cache(maxsize=256)
def _cut_plan(arguments: Tuple[str, ...], binary: bool = False):
    """A cut invocation: ``(on_lines, face)``, ``on_lines`` over ``str`` (``binary``: ``bytes``) lines.

    ``face`` is the bytes :class:`BlockMap`: one range of fields split on one
    ASCII byte is one pattern over the block, ``-s`` a ``grep -F`` before it.
    """
    options = _cut_options(arguments)
    char_spec, field_spec = options.get("-c"), options.get("-f")
    delimiter = options.get("-d") or "\t"
    if delimiter.startswith('"') and delimiter.endswith('"') and len(delimiter) >= 2:
        delimiter = delimiter[1:-1]
    if not (char_spec or field_spec):
        raise CommandError("cut requires -c or -f")
    only_delimited = "-s" in options
    if only_delimited and char_spec:
        raise CommandError("cut: -s applies to fields only")

    slices = _cut_slices(char_spec or field_spec, "--complement" in options)
    if char_spec and len(slices) == 1:
        ((low, high),) = slices
        on_lines = lambda data: [line[low:high] for line in data]  # noqa: E731
    elif char_spec:
        glue = (b"" if binary else "").join
        on_lines = lambda data: [glue([line[low:high] for low, high in slices]) for line in data]  # noqa: E731
    else:
        separator = encode_text(delimiter) if binary else delimiter
        fields_of = on_lines = _field_selector(separator, slices)
        if only_delimited:
            on_lines = lambda data: fields_of([line for line in data if separator in line])  # noqa: E731
    if not binary:
        return on_lines, None
    on_text = _cut_plan(arguments)[0]
    if char_spec or not (len(slices) == 1 and len(delimiter) == 1 and delimiter.isascii() and delimiter != "\n"):
        return on_lines, block_map_kernel(on_lines, on_text, exact=not char_spec)
    find_all = _fields_pattern(delimiter, *slices[0]).findall
    face = BlockMap(lambda block: b"\n".join(found + [b""]) if (found := find_all(block)) else b"", on_text, True)
    return on_lines, _grep_plan(("-F", delimiter), True)[3].then(face) if only_delimited else face


def cut(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``cut [-s] [--complement] -d DELIM -f LIST`` or ``cut [--complement] -c LIST``."""
    return _cut_plan(tuple(arguments))[0](concat_streams(inputs))


def cut_block(arguments: List[str]):
    """Block kernel of :func:`cut`: the plan's bytes face.

    Fields split on the delimiter's bytes, which no UTF-8 sequence holds
    part of; ``-c`` counts characters, so a non-ASCII block takes the ``str`` face.
    """
    return _cut_plan(tuple(arguments), True)[1]


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
    return _awk_printer(program, separator)(concat_streams(inputs))


@lru_cache(maxsize=256)
def _awk_printer(program: str, separator: Optional[str]):
    """``program``'s ``{print …}`` as one comprehension over a list of lines.

    ``{print}`` and ``{print $0}`` are a copy; otherwise each line is split
    once, at most as far as the highest ``$N`` asked for, and the items are
    joined by a blank (awk's ``OFS``).  ``-F ' '`` is awk's default ``FS``:
    runs of blanks separate fields and leading ones are ignored.
    """
    match = _AWK_PRINT_RE.match(program)
    if not match:
        raise CommandError(f"unsupported awk program {program!r}")
    body = match.group("body").strip()
    if body in ("", "$0"):
        return list
    items: List[str] = []  # one Python expression per printed item
    last_field = 0
    for token in map(str.strip, body.split(",")):
        if token.startswith("$"):
            try:
                index = int(token[1:])
            except ValueError:
                raise CommandError(f"unsupported awk expression {token!r}") from None
            if index == 0:
                items.append("line")
            elif index < 0:
                items.append("''")
            else:
                last_field = max(last_field, index)
                items.append(f"(fields[{index - 1}] if len(fields) > {index - 1} else '')")
        elif token.startswith('"') and token.endswith('"'):
            items.append(repr(token[1:-1]))
        else:
            raise CommandError(f"unsupported awk expression {token!r}")
    # Only integers and ``repr``-quoted literals of the program reach the source.
    printed = " + ' ' + ".join(items)
    split = f"for fields in [line.split(separator, {last_field})]" if last_field else ""
    source = f"lambda lines: [{printed} for line in lines {split}]"
    return eval(source, {"separator": separator if separator not in ("", " ") else None})


# ---------------------------------------------------------------------------
# Miscellaneous stateless text helpers
# ---------------------------------------------------------------------------


def fold(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``fold [-w N]``: wrap lines at N characters (default 80)."""
    width_text = flag_value(arguments, "-w", "80")
    width = int(width_text) if width_text else 80
    data = concat_streams(inputs)
    # ``or``: an empty line stays one line.  Iterating a str yields its characters in C.
    if width == 1:
        return list(chain.from_iterable(line or ("",) for line in data))
    return [line[start : start + width] for line in data for start in range(0, len(line) or 1, width)]


def rev(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Reverse the characters of every line."""
    return [line[::-1] for line in concat_streams(inputs)]


def col(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``col -b``: strip backspaces (modelled as carriage-return removal)."""
    return [line.replace("\b", "").replace("\r", "") for line in concat_streams(inputs)]


def iconv(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``iconv -c``: drop non-ASCII characters (sufficient for the pipelines)."""
    return [re.sub(r"[^\x00-\x7f]+", "", line) for line in concat_streams(inputs)]


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
