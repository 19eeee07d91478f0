"""The standard command registry wiring names to implementations."""

from __future__ import annotations

from functools import lru_cache

from repro.commands import misc, sorting, textproc
from repro.commands.base import CommandImplementation, CommandRegistry


def _implementations():
    """Yield every standard command implementation."""
    yield CommandImplementation(
        "grep", textproc.grep, "filter lines matching a pattern", block=textproc.grep_block
    )
    yield CommandImplementation("egrep", textproc.egrep, "grep with extended regexes")
    yield CommandImplementation("fgrep", textproc.fgrep, "grep with fixed strings")
    yield CommandImplementation(
        "tr", textproc.tr, "transliterate or delete characters", block=textproc.tr_block
    )
    yield CommandImplementation(
        "cut", textproc.cut, "select fields or character ranges", block=textproc.cut_block
    )
    yield CommandImplementation("sed", textproc.sed, "stream editor (substitution subset)")
    yield CommandImplementation("awk", textproc.awk, "awk print subset")
    yield CommandImplementation("fold", textproc.fold, "wrap lines to a width")
    yield CommandImplementation("rev", textproc.rev, "reverse characters of each line")
    yield CommandImplementation("col", textproc.col, "strip control characters")
    yield CommandImplementation("iconv", textproc.iconv, "drop non-ASCII characters")
    yield CommandImplementation("strings", textproc.strings, "printable runs")
    yield CommandImplementation("expand", textproc.expand, "tabs to spaces")
    yield CommandImplementation("gunzip", textproc.gunzip, "decompression stand-in")
    yield CommandImplementation("zcat", textproc.gunzip, "decompression stand-in")
    yield CommandImplementation("xargs", textproc.xargs, "build and run command lines")

    yield CommandImplementation("sort", sorting.sort_command, "sort lines", block=sorting.sort_block)
    yield CommandImplementation(
        "uniq", sorting.uniq, "collapse adjacent duplicates", block=sorting.uniq_block
    )
    yield CommandImplementation("comm", sorting.comm, "compare two sorted streams")
    yield CommandImplementation("join", sorting.join, "relational join of sorted streams")
    yield CommandImplementation("paste", sorting.paste, "merge corresponding lines")
    yield CommandImplementation("nl", sorting.nl, "number lines")
    yield CommandImplementation("tsort", sorting.tsort, "topological sort")

    yield CommandImplementation("cat", misc.cat, "concatenate inputs")
    yield CommandImplementation("head", misc.head, "first lines", block=misc.head_block)
    yield CommandImplementation("tail", misc.tail, "last lines")
    yield CommandImplementation("tac", misc.tac, "reverse line order")
    yield CommandImplementation("wc", misc.wc, "line/word/character counts", block=misc.wc_block)
    yield CommandImplementation("seq", misc.seq, "numeric sequences")
    yield CommandImplementation("echo", misc.echo, "print arguments")
    yield CommandImplementation("basename", misc.basename, "strip directory prefix")
    yield CommandImplementation("dirname", misc.dirname, "directory part of a path")
    yield CommandImplementation("sha1sum", misc.sha1sum, "SHA-1 digest")
    yield CommandImplementation("md5sum", misc.md5sum, "MD5 digest")
    yield CommandImplementation("diff", misc.diff_command, "line difference of two streams")

    # Custom annotated commands for the use cases.
    yield CommandImplementation("html-to-text", misc.html_to_text, "strip HTML tags")
    yield CommandImplementation("url-extract", misc.url_extract, "extract URLs")
    yield CommandImplementation("word-stem", misc.word_stem, "stem words")
    yield CommandImplementation("strip-punct", misc.strip_punct, "remove punctuation")
    yield CommandImplementation("lowercase", misc.lowercase, "lower-case lines")
    yield CommandImplementation("bigrams", misc.bigrams, "emit per-line word bigrams")
    yield CommandImplementation("trigrams", misc.trigrams, "emit word trigrams")
    yield CommandImplementation("fetch-station", misc.fetch_station, "synthetic NOAA fetch")
    yield CommandImplementation("fetch-page", misc.fetch_page, "synthetic page fetch")
    yield CommandImplementation("curl", misc.fetch_station, "curl stand-in (synthetic fetch)")


@lru_cache(maxsize=1)
def _cached_registry() -> CommandRegistry:
    return CommandRegistry(_implementations())


def standard_registry() -> CommandRegistry:
    """Return the shared standard registry (copy it before mutating)."""
    return _cached_registry()
