"""The lexer's token stream, pinned to a golden file.

``lexer_golden.json`` holds, for every script of the paper's corpus (the
Table-2 one-liners, the unix50 pipelines, pash-bench's ``script_mix``), the
control-flow table of ``tests/engine/test_cross_backend.py`` and a set of
adversarial sources (quotes, ``\\``, ``$``, backquotes, ``2>&1``, ``#``,
UTF-8, unterminated constructs), the tokens the lexer produced while it
still advanced one character at a time: kind, text, position and each word
part (kind, text, quoted), or the ``LexError`` it raised.  Reading a run of
plain characters at once must not move any of it.
"""

import json
from pathlib import Path

import pytest

from repro.shell.ast_nodes import CommandSubstitution, LiteralPart, ParameterPart
from repro.shell.lexer import LexError, tokenize

GOLDEN = json.loads((Path(__file__).parent / "lexer_golden.json").read_text(encoding="utf-8"))["cases"]
PART_KINDS = {LiteralPart: "literal", ParameterPart: "parameter", CommandSubstitution: "substitution"}


def stream(source):
    try:
        return [
            [token.kind.name, token.text, token.position,
             [[PART_KINDS[type(part)], part.name if isinstance(part, ParameterPart) else part.text, part.quoted]
              for part in token.word.parts] if token.word else None]
            for token in tokenize(source)
        ]
    except LexError as error:
        return "LexError: %s" % error


def test_the_golden_file_is_not_vacuous():
    assert len(GOLDEN) >= 80
    assert sum(isinstance(case["tokens"], str) for case in GOLDEN) >= 5


@pytest.mark.parametrize("case", GOLDEN, ids=[case["source"][:40] for case in GOLDEN])
def test_the_token_stream_is_the_golden_one(case):
    assert stream(case["source"]) == case["tokens"]
