"""Turn ASTs back into POSIX shell text.

The back-end uses this module to re-emit the program fragments PaSh did not
touch, and the tests use it to check round-tripping of the parser.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.shell.ast_nodes import (
    AndOr,
    Assignment,
    BackgroundNode,
    BraceGroup,
    Command,
    CommandSubstitution,
    ForLoop,
    IfClause,
    LiteralPart,
    Node,
    ParameterPart,
    Pipeline,
    Redirection,
    SequenceNode,
    Subshell,
    WhileLoop,
    Word,
)

_SPECIAL_CHARS = set(" \t\n|&;()<>\"'$`\\*?[]{}#~")


def quote_argument(text: str) -> str:
    """Quote ``text`` so the shell treats it as a single literal word."""
    if text and not any(char in _SPECIAL_CHARS for char in text):
        return text
    return "'" + text.replace("'", "'\\''") + "'"


def unparse_word(word: Word) -> str:
    """Render a word, preserving quoting where it matters."""
    rendered: List[str] = []
    for part in word.parts:
        if isinstance(part, LiteralPart):
            if part.quoted:
                rendered.append(quote_argument(part.text) if part.text else "''")
            else:
                rendered.append(part.text)
        elif isinstance(part, ParameterPart):
            rendered.append('"${%s}"' % part.name if part.quoted else "${%s}" % part.name)
        elif isinstance(part, CommandSubstitution):
            rendered.append('"$(%s)"' % part.text if part.quoted else "$(%s)" % part.text)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown word part {part!r}")
    return "".join(rendered)


def unparse_redirection(redirection: Redirection) -> str:
    """Render a redirection."""
    if redirection.target is None:
        return redirection.operator
    return f"{redirection.operator} {unparse_word(redirection.target)}"


def unparse_assignment(assignment: Assignment) -> str:
    """Render an assignment prefix."""
    value = unparse_word(assignment.value)
    return f"{assignment.name}={value}"


def unparse(node: Node, replacements: Optional[Dict[int, str]] = None) -> str:
    """Render any AST node back to shell text.

    ``replacements`` maps ``id(node)`` to the text to emit in that node's
    place (the back-end's parallel fragment for an optimized region).
    """
    if replacements and id(node) in replacements:
        return replacements[id(node)]
    if isinstance(node, Command):
        parts = [unparse_assignment(a) for a in node.assignments]
        parts.extend(unparse_word(word) for word in node.words)
        parts.extend(unparse_redirection(r) for r in node.redirections)
        return " ".join(parts)
    if isinstance(node, Pipeline):
        text = " | ".join(unparse(command, replacements) for command in node.commands)
        return f"! {text}" if node.negated else text
    if isinstance(node, AndOr):
        pieces = [unparse(node.parts[0], replacements)]
        for operator, part in zip(node.operators, node.parts[1:]):
            pieces.append(f" {operator} {unparse(part, replacements)}")
        return "".join(pieces)
    if isinstance(node, BackgroundNode):
        return f"{unparse(node.body, replacements)} &"
    if isinstance(node, SequenceNode):
        return "\n".join(unparse(part, replacements) for part in node.parts)
    if isinstance(node, Subshell):
        suffix = _redirection_suffix(node.redirections)
        return f"( {unparse(node.body, replacements)} ){suffix}"
    if isinstance(node, BraceGroup):
        suffix = _redirection_suffix(node.redirections)
        return "{ " + unparse(node.body, replacements) + "; }" + suffix
    if isinstance(node, ForLoop):
        items = " ".join(unparse_word(word) for word in node.items)
        header = f"for {node.variable} in {items}" if node.items else f"for {node.variable}"
        return f"{header}; do\n{unparse(node.body, replacements)}\ndone"
    if isinstance(node, WhileLoop):
        keyword = "until" if node.until else "while"
        condition = unparse(node.condition, replacements)
        return f"{keyword} {condition}; do\n{unparse(node.body, replacements)}\ndone"
    if isinstance(node, IfClause):
        condition = unparse(node.condition, replacements)
        text = f"if {condition}; then\n{unparse(node.then_body, replacements)}\n"
        if node.else_body is not None:
            text += f"else\n{unparse(node.else_body, replacements)}\n"
        return text + "fi"
    raise TypeError(f"cannot unparse node {node!r}")


def _redirection_suffix(redirections: List[Redirection]) -> str:
    if not redirections:
        return ""
    return " " + " ".join(unparse_redirection(r) for r in redirections)
