"""Command implementation protocol and registry."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


class CommandError(ValueError):
    """Raised when a command is invoked with unsupported arguments."""


#: A stream is a list of lines without trailing newlines.
Stream = List[str]

#: The same stream as bytes: an iterable of *line blocks*, each a ``bytes``
#: object of whole, ``\\n``-terminated lines.  A block kernel maps the input
#: streams to the produced streams (which may be lazy: a sort emits slices).
BlockStream = Iterable[bytes]
BlockKernel = Callable[[List[BlockStream]], List[BlockStream]]

#: Lines per encoded or re-joined slice: enough that the per-slice Python
#: overhead vanishes, few enough that memory stays at one chunk plus slack.
BLOCK_LINES = 4096

#: The one stream codec: UTF-8, each byte that does not decode carried as a lone
#: surrogate (PEP 383), so any bytes round-trip and valid UTF-8 reads as text.
_CODEC = ("utf-8", "surrogateescape")


def encode_text(text: str) -> bytes:
    """A stream's text as its bytes, by the stream codec."""
    return text.encode(*_CODEC)


def decode_text(data: bytes) -> str:
    """A stream's bytes as text, by the stream codec; total: no input raises."""
    return data.decode(*_CODEC)


def encode_block(lines: Sequence[str]) -> bytes:
    """Frame lines as one *line block*: whole, ``\\n``-terminated lines."""
    return encode_text("\n".join(lines) + "\n") if lines else b""


def decode_block(block: bytes) -> List[str]:
    """Inverse of :func:`encode_block` (tolerates a missing final newline); no
    UTF-8 sequence holds ``0x0A``, so splitting the text splits the bytes."""
    lines = decode_text(block).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def iter_line_slices(lines: Iterable[str]) -> Iterator[List[str]]:
    """Cut a stream into lists of at most ``BLOCK_LINES`` lines."""
    iterator = iter(lines)
    return iter(lambda: list(islice(iterator, BLOCK_LINES)), [])


def lines_of_blocks(streams: Iterable[BlockStream]) -> List[bytes]:
    """Every line (without its newline) of the streams, concatenated in order."""
    lines: List[bytes] = []
    for block in chain.from_iterable(streams):
        lines += block.split(b"\n")
        lines.pop()  # the empty tail after the block's final newline
    return lines


def blocks_of_lines(lines: List[bytes]) -> Iterator[bytes]:
    """Re-frame lines as line blocks, lazily: a whole stream never exists twice."""
    for start in range(0, len(lines), BLOCK_LINES):
        yield b"\n".join(lines[start : start + BLOCK_LINES] + [b""])


def stream_kernel(on_lines: Callable[[List[bytes]], List[bytes]]) -> BlockKernel:
    """Block kernel of a command that needs its whole input: ``on_lines`` over every line."""
    return lambda streams: [blocks_of_lines(on_lines(lines_of_blocks(streams)))]


@dataclass(frozen=True)
class BlockMap:
    """Block kernel of a stateless command: one line block in, one out.

    ``on_block`` maps a whole block, ``on_lines`` (if set) the same over its lines.
    ``on_text`` is the ``str`` face: unless ``exact``, the bytes face equals it
    only on ASCII data, and a block holding anything else takes it.  A bytes
    face maps ASCII to ASCII, so a fused chain checks its input once.
    """

    on_block: Callable[[bytes], bytes]
    on_text: Callable[[List[str]], List[str]]
    exact: bool = False
    on_lines: Optional[Callable[[List[bytes]], List[bytes]]] = None

    def apply(self, block: bytes) -> bytes:
        if not self.exact and not block.isascii():
            return encode_block(self.on_text(decode_block(block)))
        return self.on_block(block)

    def __call__(self, streams: List[BlockStream]) -> List[BlockStream]:
        return [map(self.apply, chain.from_iterable(streams))]

    def then(self, after: "BlockMap") -> "BlockMap":
        """This map and then ``after``, as one map: two line maps share one split."""
        first, second, exact = self, after, self.exact and after.exact
        on_text = lambda lines: second.on_text(first.on_text(lines))  # noqa: E731
        if first.on_lines and second.on_lines:
            return block_map_kernel(lambda lines: second.on_lines(first.on_lines(lines)), on_text, exact)
        return BlockMap(lambda block: second.on_block(first.on_block(block)), on_text, exact)


def block_map_kernel(on_lines: Callable[[List[bytes]], List[bytes]], on_text, exact: bool = False) -> BlockMap:
    """The :class:`BlockMap` of a stateless command that maps a block line by line."""
    return BlockMap(lambda block: b"\n".join(on_lines(block.split(b"\n")[:-1]) + [b""]), on_text, exact, on_lines)


@dataclass
class CommandImplementation:
    """A single command implementation.

    ``function`` receives the argument vector (options and operands, already
    expanded) and the list of input streams in the order dictated by the
    command's annotation, and returns the output stream.
    """

    name: str
    function: Callable[[List[str], List[Stream]], Stream]
    description: str = ""
    #: Optional bytes twin of ``function``: given the argument vector, returns
    #: a :data:`BlockKernel` with the same semantics, or None when these
    #: flags need ``str`` lines.  The parallel engine uses it to skip the
    #: decode → list → encode round trip.
    block: Optional[Callable[[List[str]], Optional[BlockKernel]]] = None

    def run(self, arguments: Sequence[str], inputs: Sequence[Stream]) -> Stream:
        """Execute the command over ``inputs`` and return its output lines.

        The inputs are handed over uncopied and are read-only: a command
        builds its output in a list of its own (or returns an input as it
        is) and never changes a stream it was given.
        """
        return self.function(list(arguments), list(inputs))


class CommandRegistry:
    """Name-indexed collection of command implementations."""

    def __init__(self, implementations: Optional[Iterable[CommandImplementation]] = None) -> None:
        self._implementations: Dict[str, CommandImplementation] = {}
        for implementation in implementations or ():
            self.register(implementation)

    def register(self, implementation: CommandImplementation) -> None:
        """Add or replace an implementation."""
        self._implementations[implementation.name] = implementation

    def register_function(
        self,
        name: str,
        function: Callable[[List[str], List[Stream]], Stream],
        description: str = "",
    ) -> CommandImplementation:
        """Convenience wrapper to register a bare function."""
        implementation = CommandImplementation(name, function, description)
        self.register(implementation)
        return implementation

    def __contains__(self, name: str) -> bool:
        return name in self._implementations

    def __len__(self) -> int:
        return len(self._implementations)

    def names(self) -> List[str]:
        return sorted(self._implementations)

    def lookup(self, name: str) -> CommandImplementation:
        """Return the implementation for ``name``.

        Accepts both plain names and paths (``./avg.py`` resolves to
        ``avg.py``); raises :class:`CommandError` when unknown.
        """
        if name in self._implementations:
            return self._implementations[name]
        basename = name.rsplit("/", 1)[-1]
        if basename in self._implementations:
            return self._implementations[basename]
        raise CommandError(f"no implementation registered for command {name!r}")

    def run(self, name: str, arguments: Sequence[str], inputs: Sequence[Stream]) -> Stream:
        """Look up and run a command in one step."""
        return self.lookup(name).run(arguments, inputs)

    def copy(self) -> "CommandRegistry":
        return CommandRegistry(self._implementations.values())


# ---------------------------------------------------------------------------
# Argument-parsing helpers shared by the implementations
# ---------------------------------------------------------------------------


def split_flags(arguments: Sequence[str]) -> (List[str], List[str]):  # type: ignore[valid-type]
    """Split an argument vector into (options, operands)."""
    options: List[str] = []
    operands: List[str] = []
    for argument in arguments:
        if argument.startswith("-") and argument != "-":
            options.append(argument)
        else:
            operands.append(argument)
    return options, operands


def flag_value(arguments: Sequence[str], flag: str, default: Optional[str] = None) -> Optional[str]:
    """Return the value following ``flag`` (``-n 5`` or ``-n5`` or ``--n=5``)."""
    args = list(arguments)
    for index, argument in enumerate(args):
        if argument == flag:
            if index + 1 < len(args):
                return args[index + 1]
            return default
        if argument.startswith(flag) and len(argument) > len(flag) and not flag.startswith("--"):
            return argument[len(flag):]
        if argument.startswith(flag + "="):
            return argument[len(flag) + 1:]
    return default


def only_flags(arguments: Sequence[str], letters: str) -> bool:
    """True when every argument is a cluster of short flags drawn from ``letters`` (no operand)."""
    return all(len(arg) > 1 and arg[0] == "-" and not set(arg[1:]) - set(letters) for arg in arguments)


def has_flag(arguments: Sequence[str], *flags: str) -> bool:
    """True when any of ``flags`` appears (including combined short options)."""
    short_letters = {flag[1] for flag in flags if len(flag) == 2 and flag[1] != "-"}
    for argument in arguments:
        if argument in flags:
            return True
        if (
            argument.startswith("-")
            and not argument.startswith("--")
            and argument != "-"
            and short_letters.intersection(argument[1:])
        ):
            return True
    return False


def concat_streams(streams: Sequence[Stream]) -> Stream:
    """Concatenate input streams in order (the shell's ``cat`` semantics).

    A single stream is returned as is, not copied: the result is as
    read-only as the inputs are.
    """
    if len(streams) == 1:
        return streams[0]
    return list(chain.from_iterable(streams))
