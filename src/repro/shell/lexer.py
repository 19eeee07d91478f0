"""Tokenizer for the POSIX shell subset.

The lexer produces a flat stream of tokens.  Word tokens carry a parsed
:class:`~repro.shell.ast_nodes.Word` value so that quoting, parameter
expansion, and command substitution are resolved in a single place.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Optional

from repro.shell.ast_nodes import CommandSubstitution, LiteralPart, ParameterPart, Word


class LexError(ValueError):
    """Raised when the input cannot be tokenized."""


class TokenKind(enum.Enum):
    """Kinds of tokens produced by :func:`tokenize`."""

    WORD = "word"
    PIPE = "|"
    AND_IF = "&&"
    OR_IF = "||"
    SEMI = ";"
    AMP = "&"
    NEWLINE = "newline"
    LPAREN = "("
    RPAREN = ")"
    REDIRECT = "redirect"
    EOF = "eof"


@dataclass
class Token:
    """A single lexical token."""

    kind: TokenKind
    text: str
    word: Optional[Word] = None
    position: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind.name}, {self.text!r})"


_OPERATOR_STARTERS = "|&;()<>\n"

#: A run of word characters with no branch of their own in :meth:`_Lexer._lex_word`:
#: not a blank, an operator, a quote, ``\``, ``$`` or a backquote.
_PLAIN_RUN = re.compile(r"[^ \t\n|&;()<>'\"\\$`]+")


class _Lexer:
    """Stateful cursor over the source text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.tokens: List[Token] = []

    # -- low-level helpers --------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        self.pos += count
        return text

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    # -- top level ----------------------------------------------------------

    def run(self) -> List[Token]:
        while not self._at_end():
            char = self._peek()
            if char in (" ", "\t"):
                self._advance()
            elif char == "#":
                self._skip_comment()
            elif char == "\\" and self._peek(1) == "\n":
                self._advance(2)
            elif char == "\n":
                self._advance()
                self._emit(TokenKind.NEWLINE, "\n")
            elif char in _OPERATOR_STARTERS or (
                char.isdigit() and self._peek(1) in (">", "<") and self._is_fd_redirect()
            ):
                self._lex_operator()
            else:
                self._lex_word()
        self._emit(TokenKind.EOF, "")
        return self.tokens

    def _emit(self, kind: TokenKind, text: str, word: Optional[Word] = None) -> None:
        self.tokens.append(Token(kind, text, word=word, position=self.pos))

    def _skip_comment(self) -> None:
        end = self.source.find("\n", self.pos)
        self.pos = len(self.source) if end < 0 else end

    def _is_fd_redirect(self) -> bool:
        """True when the cursor sits at an ``N>``-style redirect (not a word)."""
        # Only treat a leading digit as a file descriptor when it is
        # immediately followed by a redirect operator and preceded by
        # whitespace or start-of-input (POSIX rule 2).
        if self.pos > 0 and self.source[self.pos - 1] not in " \t\n;|&(":
            return False
        return True

    # -- operators ----------------------------------------------------------

    def _lex_operator(self) -> None:
        char = self._peek()
        if char.isdigit():
            for op in (">&1", ">>", ">&", ">", "<&", "<"):
                candidate = char + op
                if self.source.startswith(candidate, self.pos):
                    self._advance(len(candidate))
                    self._emit(TokenKind.REDIRECT, candidate)
                    return
            # Not actually a redirect; fall back to lexing a word.
            self._lex_word()
            return
        two = self.source[self.pos : self.pos + 2]
        if two == "&&":
            self._advance(2)
            self._emit(TokenKind.AND_IF, "&&")
        elif two == "||":
            self._advance(2)
            self._emit(TokenKind.OR_IF, "||")
        elif self.source.startswith("2>&1", self.pos):
            self._advance(4)
            self._emit(TokenKind.REDIRECT, "2>&1")
        elif two in (">>", "2>", ">&", "<&", "&>"):
            self._advance(2)
            self._emit(TokenKind.REDIRECT, two)
        elif char == "|":
            self._advance()
            self._emit(TokenKind.PIPE, "|")
        elif char == "&":
            self._advance()
            self._emit(TokenKind.AMP, "&")
        elif char == ";":
            self._advance()
            self._emit(TokenKind.SEMI, ";")
        elif char == "(":
            self._advance()
            self._emit(TokenKind.LPAREN, "(")
        elif char == ")":
            self._advance()
            self._emit(TokenKind.RPAREN, ")")
        elif char in (">", "<"):
            self._advance()
            self._emit(TokenKind.REDIRECT, char)
        elif char == "\n":
            self._advance()
            self._emit(TokenKind.NEWLINE, "\n")
        else:  # pragma: no cover - defensive
            raise LexError(f"unexpected operator character {char!r} at {self.pos}")

    # -- words --------------------------------------------------------------

    def _lex_word(self) -> None:
        parts = []
        literal: List[str] = []

        def flush(quoted: bool = False) -> None:
            if literal:
                parts.append(LiteralPart("".join(literal), quoted=quoted))
                literal.clear()

        while not self._at_end():
            char = self._peek()
            if char in " \t\n" or (char in "|&;()<>" and not literal_is_open_brace(literal)):
                break
            if char == "'":
                flush()
                self._advance()
                parts.append(LiteralPart(self._read_until("'"), quoted=True))
            elif char == '"':
                flush()
                self._advance()
                parts.extend(self._lex_double_quoted())
            elif char == "\\":
                self._advance()
                if not self._at_end():
                    literal.append(self._advance())
            elif char == "$":
                flush()
                parts.append(self._lex_dollar(quoted=False))
            elif char == "`":
                flush()
                self._advance()
                parts.append(CommandSubstitution(self._read_until("`")))
            else:
                run = _PLAIN_RUN.match(self.source, self.pos)
                literal.append(run.group())
                self.pos = run.end()
        flush()
        if not parts:
            raise LexError(f"empty word at position {self.pos}")
        self._emit(TokenKind.WORD, "".join(str(Word(parts)).splitlines()), Word(parts))

    def _read_until(self, terminator: str) -> str:
        end = self.source.find(terminator, self.pos)
        if end < 0:
            self.pos = len(self.source)
            raise LexError(f"unterminated {terminator!r} quote")
        text = self.source[self.pos : end]
        self.pos = end + 1
        return text

    def _lex_double_quoted(self) -> List:
        parts = []
        literal: List[str] = []

        def flush() -> None:
            if literal:
                parts.append(LiteralPart("".join(literal), quoted=True))
                literal.clear()

        while True:
            if self._at_end():
                raise LexError("unterminated double quote")
            char = self._peek()
            if char == '"':
                self._advance()
                break
            if char == "\\" and self._peek(1) in ('"', "$", "`", "\\"):
                self._advance()
                literal.append(self._advance())
            elif char == "$":
                flush()
                parts.append(self._lex_dollar(quoted=True))
            elif char == "`":
                flush()
                self._advance()
                parts.append(CommandSubstitution(self._read_until("`"), quoted=True))
            else:
                literal.append(self._advance())
        flush()
        if not parts:
            parts.append(LiteralPart("", quoted=True))
        return parts

    def _lex_dollar(self, quoted: bool):
        assert self._peek() == "$"
        self._advance()
        char = self._peek()
        if char == "(":
            self._advance()
            depth = 1
            collected: List[str] = []
            while not self._at_end():
                inner = self._advance()
                if inner == "(":
                    depth += 1
                elif inner == ")":
                    depth -= 1
                    if depth == 0:
                        break
                collected.append(inner)
            if depth != 0:
                raise LexError("unterminated command substitution")
            return CommandSubstitution("".join(collected), quoted=quoted)
        if char == "{":
            self._advance()
            name = self._read_until("}")
            return ParameterPart(name, quoted=quoted)
        if char.isalpha() or char == "_":
            collected = []
            while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
                collected.append(self._advance())
            return ParameterPart("".join(collected), quoted=quoted)
        if char.isdigit() or char in "!@#$*?-":
            self._advance()
            return ParameterPart(char, quoted=quoted)
        # A bare dollar sign is a literal.
        return LiteralPart("$", quoted=quoted)


def literal_is_open_brace(literal: List[str]) -> bool:
    """Return False: operators always terminate words in this subset."""
    return False


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` and return the token list (terminated by EOF)."""
    return _Lexer(source).run()
