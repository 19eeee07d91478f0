"""Remaining commands: cat, head, tail, tac, wc, seq, hashing, and the
custom annotated commands used by the web-indexing and NOAA use cases."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import zlib
from functools import partial
from typing import List

from repro.commands.argv import parse_argv
from repro.commands.base import CommandError, Stream, concat_streams, encode_block, iter_line_slices, stream_kernel


# ---------------------------------------------------------------------------
# Concatenation and selection
# ---------------------------------------------------------------------------


def cat(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``cat [-n|-b]``: concatenate inputs, optionally numbering (non-blank) lines."""
    data, argv = concat_streams(inputs), parse_argv("cat", arguments)
    if argv.has("-b"):
        numbers = itertools.count(1)
        return [f"{next(numbers):6d}\t{line}" if line else line for line in data]
    if argv.has("-n"):
        return [f"{index:6d}\t{line}" for index, line in enumerate(data, start=1)]
    return data


def head(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``head [-n N | -N]`` (default 10; ``-n -N``: all but the last N)."""
    return concat_streams(inputs)[: int(parse_argv("head", arguments).value("-n", "10"))]


def head_block(arguments: List[str]):
    """Block kernel of :func:`head`, which never looks inside a line: ``bytes`` lines do."""
    return stream_kernel(lambda lines: head(arguments, [lines]))


def tail(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``tail [-n N | -N]`` (default 10; ``-n -N`` is ``-n N``); supports the ``-n +K`` skip form."""
    count_text = parse_argv("tail", arguments).value("-n", "10")
    data = concat_streams(inputs)
    if count_text.startswith("+"):
        return data[max(int(count_text[1:]) - 1, 0):]
    count = abs(int(count_text))
    return data[-count:] if count else []


def tac(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Reverse the order of lines."""
    return list(reversed(concat_streams(inputs)))


def wc(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``wc [-l] [-w] [-c|-m]``: line/word/byte counts — only those asked for."""
    data, argv = concat_streams(inputs), parse_argv("wc", arguments)
    want_lines, want_words, want_chars = argv.has("-l"), argv.has("-w"), argv.has("-c", "-m")
    if not (want_lines or want_words or want_chars):
        want_lines = want_words = want_chars = True

    fields: List[int] = []
    if want_lines:
        fields.append(len(data))
    if want_words:
        fields.append(len("\n".join(data).split()))  # no line holds a newline to split on
    if want_chars:  # bytes, as under ``LC_ALL=C``
        fields.append(sum(map(len, map(encode_block, iter_line_slices(data)))))
    return [" ".join(map(str, fields))]


def wc_block(arguments: List[str]):
    """Block kernel of :func:`wc` for ``-l`` alone: a line is a newline byte."""
    argv = parse_argv("wc", arguments)
    if argv.operands or argv.flags() != {"-l"}:
        return None
    return lambda streams: [[b"%d\n" % sum(block.count(b"\n") for stream in streams for block in stream)]]


def seq(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``seq [first [increment]] last`` (negative increments included)."""
    numbers = []
    for argument in arguments:
        try:
            numbers.append(int(argument))
        except ValueError:
            continue
    if len(numbers) == 1:
        first, increment, last = 1, 1, numbers[0]
    elif len(numbers) == 2:
        first, increment, last = numbers[0], 1, numbers[1]
    elif len(numbers) == 3:
        first, increment, last = numbers
    else:
        raise CommandError("seq requires one to three numeric operands")
    out: Stream = []
    value = first
    while (increment > 0 and value <= last) or (increment < 0 and value >= last):
        out.append(str(value))
        value += increment
    return out


def echo(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``echo [-n] words...``."""
    return [" ".join(parse_argv("echo", arguments).operands)]


def basename(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``basename path [suffix]`` or line-wise when reading a stream."""
    operands = parse_argv("basename", arguments).operands
    if operands:
        name = operands[0].rstrip("/").rsplit("/", 1)[-1]
        if len(operands) > 1 and name.endswith(operands[1]):
            name = name[: -len(operands[1])]
        return [name]
    return [line.rstrip("/").rsplit("/", 1)[-1] for line in concat_streams(inputs)]


def dirname(arguments: List[str], inputs: List[Stream]) -> Stream:
    """``dirname path`` or line-wise when reading a stream."""
    operands = parse_argv("dirname", arguments).operands

    def compute(path: str) -> str:
        trimmed = path.rstrip("/")
        if "/" not in trimmed:
            return "."
        parent = trimmed.rsplit("/", 1)[0]
        return parent or "/"

    if operands:
        return [compute(operands[0])]
    return [compute(line) for line in concat_streams(inputs)]


# ---------------------------------------------------------------------------
# Hashing / diffing (non-parallelizable pure)
# ---------------------------------------------------------------------------


def _digest(algorithm: str, arguments: List[str], inputs: List[Stream]) -> Stream:
    """``sha1sum``/``md5sum [FILE...]``: ``HASH  NAME`` per input, each the digest of
    its bytes; the inputs are the file operands (``-`` and none: stdin)."""
    names = parse_argv(algorithm + "sum", arguments).operands or ["-"]
    lines = []
    for name, stream in zip(names, inputs):
        digest = hashlib.new(algorithm)
        for block in map(encode_block, iter_line_slices(stream)):
            digest.update(block)
        lines.append(f"{digest.hexdigest()}  {name}")
    return lines


sha1sum = partial(_digest, "sha1")
md5sum = partial(_digest, "md5")


def diff_command(arguments: List[str], inputs: List[Stream]) -> Stream:
    """A minimal ``diff``: report added/removed lines between two inputs."""
    if len(inputs) < 2:
        raise CommandError("diff requires two input streams")
    import difflib

    first, second = inputs[0], inputs[1]
    out: Stream = []
    for line in difflib.unified_diff(first, second, lineterm="", n=0):
        if line.startswith(("---", "+++", "@@")):
            continue
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# Custom annotated commands used by the use cases (§6.3, §6.4)
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]+>")
_URL_RE = re.compile(r"https?://[^\s\"'<>]+")
_PUNCT_RE = re.compile(r"[^\w\s]")


def html_to_text(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Strip HTML tags from every line (stateless)."""
    out: Stream = []
    for line in concat_streams(inputs):
        text = _TAG_RE.sub(" ", line)
        text = re.sub(r"\s+", " ", text).strip()
        if text:
            out.append(text)
    return out


def url_extract(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Extract URLs from every line (stateless)."""
    out: Stream = []
    for line in concat_streams(inputs):
        out.extend(_URL_RE.findall(line))
    return out


def word_stem(arguments: List[str], inputs: List[Stream]) -> Stream:
    """A toy Porter-style stemmer applied word-by-word (stateless)."""
    suffixes = ("ingly", "edly", "ing", "ed", "ly", "es", "s")

    def stem(word: str) -> str:
        lowered = word.lower()
        for suffix in suffixes:
            if lowered.endswith(suffix) and len(lowered) - len(suffix) >= 3:
                return lowered[: -len(suffix)]
        return lowered

    out: Stream = []
    for line in concat_streams(inputs):
        out.append(" ".join(stem(word) for word in line.split()))
    return out


def strip_punct(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Remove punctuation characters (stateless)."""
    return [_PUNCT_RE.sub("", line) for line in concat_streams(inputs)]


def lowercase(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Lower-case every line (stateless)."""
    return [line.lower() for line in concat_streams(inputs)]


def bigrams(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Emit word bigrams of every line, one per output line (stateless).

    The optimized bi-grams benchmark (§6.1) uses this helper instead of the
    stream-shifting ``tail -n +2`` / ``paste`` trick; because it never crosses
    line boundaries it stays in the stateless class and parallelizes without
    a split barrier.
    """
    out: Stream = []
    for line in concat_streams(inputs):
        words = line.split()
        out.extend(f"{first} {second}" for first, second in zip(words, words[1:]))
    return out


def trigrams(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Emit word trigrams of the concatenated input (pure)."""
    words: List[str] = []
    for line in concat_streams(inputs):
        words.extend(line.split())
    return [
        " ".join(words[index : index + 3])
        for index in range(len(words) - 2)
    ]


def _seeded(identifier: str) -> random.Random:
    """A generator seeded by ``identifier`` alone: ``hash()`` of a ``str`` is
    salted per process, so a remote worker would print other data."""
    return random.Random(zlib.crc32(identifier.encode("utf-8", "surrogateescape")))


def station_records(identifier: str, records: int = 365) -> List[str]:
    """Fixed-width daily records of one station archive, what ``fetch-station`` prints.

    Characters 88-91 (1-based) hold the temperature in tenths of a degree,
    occasionally the ``0999`` sentinel for missing data, and 92 a flag: the
    slice Fig. 1's ``cut -c 88-92`` reads.
    """
    rng = _seeded(identifier)
    lines = []
    for day in range(records):
        temperature = rng.randrange(0, 450)
        body = "0999" if rng.random() < 0.02 else f"{temperature:04d}"
        prefix = f"{identifier:<60.60}day{day:04d}".ljust(87, "x")
        lines.append(prefix + body + "1" + "trailing-data")
    return lines


_TOPICS = [
    "operating systems", "dataflow", "parallel computing", "shell scripting",
    "compilers", "databases", "networking", "file systems", "scheduling",
    "distributed systems", "stream processing", "text indexing",
]

_SENTENCES = [
    "The {topic} article discusses the history and design of {topic}.",
    "Researchers studying {topic} have published extensively at systems venues.",
    "A common technique in {topic} is pipeline composition and parallel execution.",
    "See also the related article on <a href='https://example.org/wiki/{slug}'>{topic}</a>.",
    "Performance of {topic} improved dramatically with data parallelism.",
]


def page_html(identifier: str, paragraphs: int = 30) -> List[str]:
    """The HTML of one page identifier (or URL), what ``fetch-page`` prints."""
    rng = _seeded(identifier)
    slug = identifier.rsplit("/", 1)[-1]
    lines = [f"<html><head><title>{slug}</title></head><body>"]
    for _ in range(paragraphs):
        topic = rng.choice(_TOPICS)
        sentence = rng.choice(_SENTENCES).format(topic=topic, slug=slug.replace(" ", "-"))
        lines.append(f"<p>{sentence}</p>")
    lines.append("</body></html>")
    return lines


def fetch_station(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Stand-in for ``curl`` in the NOAA pipeline (§6.3).

    Deterministically synthesizes fixed-width temperature records for the
    station/year identifiers given as operands or on the input stream.  The
    substitution keeps the pipeline's DFG identical while removing the
    network dependency.
    """
    identifiers = parse_argv("fetch-station", arguments).operands or concat_streams(inputs)
    out: Stream = []
    for identifier in identifiers:
        out.extend(station_records(identifier))
    return out


def fetch_page(arguments: List[str], inputs: List[Stream]) -> Stream:
    """Stand-in for the page download stage of the web-indexing use case."""
    identifiers = parse_argv("fetch-page", arguments).operands or concat_streams(inputs)
    out: Stream = []
    for identifier in identifiers:
        out.extend(page_html(identifier))
    return out
