"""One reading of argv: each command's option syntax, declared once, parsed once.

Which tokens of an argument vector are options, which option takes the next
token as its value and which tokens are operands is one decision per command
(the annotation language's predicates are over options, §3.2).  It is made
here, in :data:`SPECS`, and read through :func:`parse_argv` by every layer
that asks: the annotation (which operands are input files), the command, its
aggregator and the optimizer's passes.  The parser is ``getopt.gnu_getopt``
over the command's :class:`OptionSpec`, cached on ``(name, argv)``.  An option
outside the spec raises :class:`CommandError`, so a flag is either honoured or
refused, never ignored.

A command whose argv is not getopt-shaped (``echo``, ``seq``, the use-case
stand-ins such as ``iconv`` and ``curl``, a user-registered function) has no spec: for it each ``-xyz`` is a
set of valueless flags and every other argument an operand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.commands.base import CommandError


@dataclass(frozen=True)
class OptionSpec:
    """A command's options: a getopt option string (``"rk:"``: ``-r``, and ``-k``
    with a value; a leading ``+`` stops at the first operand) and long options
    (``"parallel="`` takes a value)."""

    short: str
    long: Tuple[str, ...] = ()
    #: ``head -5``/``tail -5``, ``tail +5``: a first argument ``-N`` (``tail``:
    #: also ``+N``) is ``-n`` with that count; a later ``-n`` still wins.
    counts: str = ""


@dataclass(frozen=True)
class ParsedArgv:
    """An argv as its spec reads it: the ``(flag, value)`` pairs in order (a
    valueless flag's value is ``""``), and the operands with their indices in argv."""

    pairs: Tuple[Tuple[str, str], ...]
    operands: Tuple[str, ...]
    positions: Tuple[int, ...]

    def has(self, *flags: str) -> bool:
        """True when any of ``flags`` (``-n``, ``--complement``) was given."""
        return any(flag in flags for flag, _ in self.pairs)

    def values(self, flag: str) -> List[str]:
        """Every value given to ``flag``, in order."""
        return [value for given, value in self.pairs if given == flag]

    def value(self, flag: str, default: Optional[str] = None) -> Optional[str]:
        """The value of ``flag``; the last one wins, as in GNU tools."""
        given = self.values(flag)
        return given[-1] if given else default

    def flags(self) -> set:
        """The flags given, without their values."""
        return {flag for flag, _ in self.pairs}


_GREP = OptionSpec("cEFie:nowvx")

#: The option syntax of every implemented getopt-shaped command.  GNU flags a
#: command does not implement are absent, so they are refused.
SPECS: Dict[str, OptionSpec] = {
    "grep": _GREP,
    "egrep": _GREP,
    "fgrep": _GREP,
    "tr": OptionSpec("cds"),
    "cut": OptionSpec("c:d:f:s", ("complement", "only-delimited")),
    "sed": OptionSpec("e:n"),
    "awk": OptionSpec("F:"),
    "fold": OptionSpec("w:"),
    # POSIX mode: the first operand is the command, and what follows is its argv.
    "xargs": OptionSpec("+n:"),
    # -S, -T and --parallel size sort's buffer, its temporary directory and its
    # threads: they never change the output, so they are read and ignored.
    "sort": OptionSpec("bdfk:mnrst:uS:T:", ("parallel=",)),
    "uniq": OptionSpec("cdf:is:uw:"),
    "comm": OptionSpec("123"),
    "paste": OptionSpec("d:s"),
    "cat": OptionSpec("bn"),
    "head": OptionSpec("n:", counts="-"),
    "tail": OptionSpec("n:", counts="-+"),
    "wc": OptionSpec("clmw"),
    "col": OptionSpec("b"),
    **{
        name: OptionSpec("")
        for name in ("join", "nl", "tac", "tsort", "basename", "dirname", "rev", "strings", "expand",
                     "sha1sum", "md5sum", "diff")
    },
}


class _Token(str):
    """An argv token that remembers its index: ``gnu_getopt`` hands each operand
    back as the very object it was given, so the operand keeps its position."""

    position: int


def _tokens(argv: Sequence[str], counts: str) -> List[_Token]:
    tokens = []
    for position, text in enumerate(argv):
        token = _Token(text)
        token.position = position
        tokens.append(token)
    if counts and argv and re.fullmatch(r"[%s]\d+" % re.escape(counts), argv[0]):
        count = argv[0].lstrip("-")  # ``-5`` counts 5, ``+5`` keeps its sign
        tokens[:1] = [_Token("-n"), _Token(count)]
    return tokens


def _without_spec(argv: Tuple[str, ...]) -> ParsedArgv:
    """Each ``-xyz`` is the valueless flags ``-x -y -z`` (``--name=value`` is one
    pair); everything else, ``-`` included, is an operand."""
    pairs: List[Tuple[str, str]] = []
    operands = []
    for position, token in enumerate(argv):
        if token[:2] == "--":
            pairs.append((token.partition("=")[0], token.partition("=")[2]))
        elif token[:1] == "-" and token != "-":
            pairs += [("-" + letter, "") for letter in token[1:]]
        else:
            operands.append((position, token))
    return ParsedArgv(tuple(pairs), tuple(token for _, token in operands), tuple(p for p, _ in operands))


@lru_cache(maxsize=1024)
def _parse(name: str, argv: Tuple[str, ...]) -> ParsedArgv:
    spec = SPECS.get(name.rsplit("/", 1)[-1])
    if spec is None:
        return _without_spec(argv)
    import getopt  # here, not at import time: it loads gettext (1.7 ms)

    try:
        found, rest = getopt.gnu_getopt(_tokens(argv, spec.counts), spec.short, spec.long)
    except getopt.GetoptError as exc:
        raise CommandError(f"{name}: {exc}") from exc
    pairs = tuple((flag, str(value)) for flag, value in found)
    return ParsedArgv(pairs, tuple(map(str, rest)), tuple(token.position for token in rest))


def parse_argv(name: str, argv: Sequence[str]) -> ParsedArgv:
    """``argv`` as ``name``'s spec reads it; raises :class:`CommandError` for an
    option outside the spec.  Cached: every layer asking reads one parse."""
    return _parse(name, tuple(argv))


def declare_spec(name: str, spec: Optional[OptionSpec]) -> None:
    """Declare (or, with None, withdraw) the option syntax of command ``name``."""
    if spec is None:
        SPECS.pop(name, None)
    else:
        SPECS[name] = spec
    _parse.cache_clear()
