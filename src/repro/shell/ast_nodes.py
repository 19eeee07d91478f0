"""AST node definitions for the POSIX shell subset parsed by this package.

The node hierarchy deliberately mirrors the grammar productions PaSh cares
about.  Every node is a frozen-ish dataclass (mutable only where the
optimizer needs to rewrite children) and knows how to render itself back to
shell text via :mod:`repro.shell.unparser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


class Node:
    """Base class for every AST node."""

    def children(self) -> Sequence["Node"]:
        """Return the child nodes, used by generic tree walks."""
        return ()


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


@dataclass
class WordPart:
    """A single piece of a word."""


@dataclass
class LiteralPart(WordPart):
    """Literal (possibly quoted) text."""

    text: str
    quoted: bool = False


@dataclass
class ParameterPart(WordPart):
    """A parameter expansion such as ``$foo`` or ``${foo}``."""

    name: str
    quoted: bool = False


@dataclass
class CommandSubstitution(WordPart):
    """A command substitution ``$(...)`` or backquoted.

    PaSh treats command substitutions as opaque: the inner text is preserved
    but never parallelized, keeping the translation conservative.
    """

    text: str
    quoted: bool = False


@dataclass
class Word(Node):
    """A shell word composed of literal, parameter, and substitution parts."""

    parts: List[WordPart] = field(default_factory=list)

    @classmethod
    def literal(cls, text: str, quoted: bool = False) -> "Word":
        """Build a word from a single literal string."""
        return cls([LiteralPart(text, quoted=quoted)])

    def is_literal(self) -> bool:
        """True when the word contains only literal parts."""
        return all(isinstance(part, LiteralPart) for part in self.parts)

    def has_substitution(self) -> bool:
        """True when the word contains a command substitution."""
        return any(isinstance(part, CommandSubstitution) for part in self.parts)

    def literal_text(self) -> Optional[str]:
        """Return the concatenated text when the word is fully literal."""
        if not self.is_literal():
            return None
        return "".join(part.text for part in self.parts)  # type: ignore[union-attr]

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        rendered = []
        for part in self.parts:
            if isinstance(part, LiteralPart):
                rendered.append(part.text)
            elif isinstance(part, ParameterPart):
                rendered.append("${%s}" % part.name)
            elif isinstance(part, CommandSubstitution):
                rendered.append("$(%s)" % part.text)
        return "".join(rendered)


# ---------------------------------------------------------------------------
# Redirections and assignments
# ---------------------------------------------------------------------------


@dataclass
class Redirection(Node):
    """A redirection such as ``> out.txt`` or ``2>&1``."""

    operator: str
    target: Optional[Word] = None
    fd: Optional[int] = None


@dataclass
class Assignment(Node):
    """A variable assignment ``name=value`` (prefix or standalone)."""

    name: str
    value: Word


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass
class Command(Node):
    """A simple command: assignments, command word, arguments, redirections."""

    assignments: List[Assignment] = field(default_factory=list)
    words: List[Word] = field(default_factory=list)
    redirections: List[Redirection] = field(default_factory=list)

    @property
    def name(self) -> Optional[str]:
        """The literal command name, or None when dynamic."""
        if not self.words:
            return None
        return self.words[0].literal_text()

    @property
    def argument_words(self) -> List[Word]:
        """Arguments excluding the command name."""
        return self.words[1:]

    def children(self) -> Sequence[Node]:
        return tuple(self.assignments) + tuple(self.words) + tuple(self.redirections)


@dataclass
class Pipeline(Node):
    """A pipeline ``a | b | c``, optionally negated with ``!``."""

    commands: List[Node] = field(default_factory=list)
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return tuple(self.commands)


@dataclass
class AndOr(Node):
    """A list joined by ``&&`` / ``||``.

    ``operators[i]`` joins ``parts[i]`` and ``parts[i + 1]``.
    """

    parts: List[Node] = field(default_factory=list)
    operators: List[str] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return tuple(self.parts)


@dataclass
class BackgroundNode(Node):
    """A command list run asynchronously with ``&``."""

    body: Node = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.body,)


@dataclass
class SequenceNode(Node):
    """A sequence of statements separated by ``;`` or newlines."""

    parts: List[Node] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return tuple(self.parts)


@dataclass
class Subshell(Node):
    """A subshell ``( ... )``."""

    body: Node = None  # type: ignore[assignment]
    redirections: List[Redirection] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return (self.body,)


@dataclass
class BraceGroup(Node):
    """A brace group ``{ ...; }``."""

    body: Node = None  # type: ignore[assignment]
    redirections: List[Redirection] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return (self.body,)


@dataclass
class ForLoop(Node):
    """A ``for name in words; do body; done`` loop."""

    variable: str = ""
    items: List[Word] = field(default_factory=list)
    body: Node = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.body,)


@dataclass
class WhileLoop(Node):
    """A ``while cond; do body; done`` loop (also models ``until``)."""

    condition: Node = None  # type: ignore[assignment]
    body: Node = None  # type: ignore[assignment]
    until: bool = False

    def children(self) -> Sequence[Node]:
        return (self.condition, self.body)


@dataclass
class IfClause(Node):
    """An ``if cond; then body; [else orelse;] fi`` clause."""

    condition: Node = None  # type: ignore[assignment]
    then_body: Node = None  # type: ignore[assignment]
    else_body: Optional[Node] = None

    def children(self) -> Sequence[Node]:
        parts = [self.condition, self.then_body]
        if self.else_body is not None:
            parts.append(self.else_body)
        return tuple(parts)


def walk(node: Node):
    """Yield ``node`` and all of its descendants in pre-order."""
    yield node
    for child in node.children():
        if isinstance(child, Node):
            yield from walk(child)


def iter_commands(node: Node):
    """Yield every :class:`Command` node underneath ``node``."""
    for sub in walk(node):
        if isinstance(sub, Command):
            yield sub
