"""Tests for safe word expansion."""

import pytest

from repro.shell.expansion import (
    ExpansionContext,
    ExpansionError,
    expand_pathnames,
    expand_word,
    try_expand_word,
)
from repro.runtime.streams import VirtualFileSystem
from repro.shell.lexer import tokenize


def word(text):
    return tokenize(text)[0].word


def test_literal_word():
    assert expand_word(word("hello")) == ["hello"]


def test_parameter_expansion():
    context = ExpansionContext({"base": "/data"})
    assert expand_word(word("$base/file"), context) == ["/data/file"]


def test_braced_parameter_expansion():
    context = ExpansionContext({"y": "2020"})
    assert expand_word(word("${y}.txt"), context) == ["2020.txt"]


def test_unknown_variable_strict_raises():
    with pytest.raises(ExpansionError):
        expand_word(word("$missing"), ExpansionContext(strict=True))


def test_unknown_variable_lenient_is_empty():
    context = ExpansionContext(strict=False)
    assert expand_word(word("x$missing"), context) == ["x"]


def test_command_substitution_raises():
    with pytest.raises(ExpansionError):
        expand_word(word("$(date)"))


def test_try_expand_returns_none_on_failure():
    assert try_expand_word(word("$(date)")) is None
    assert try_expand_word(word("plain")) == ["plain"]


def test_brace_range_expansion():
    assert expand_word(word("{1..4}")) == ["1", "2", "3", "4"]


def test_brace_range_descending():
    assert expand_word(word("{3..1}")) == ["3", "2", "1"]


def test_brace_list_expansion():
    assert expand_word(word("file.{txt,csv}")) == ["file.txt", "file.csv"]


def test_brace_range_with_prefix_and_suffix():
    context = ExpansionContext({"base": "B"})
    assert expand_word(word("$base/{2019..2021}/x"), context) == [
        "B/2019/x",
        "B/2020/x",
        "B/2021/x",
    ]


def test_quoted_text_is_not_field_split():
    assert expand_word(word("'a b'")) == ["a b"]


def test_unquoted_variable_is_field_split():
    context = ExpansionContext({"files": "a.txt b.txt"})
    assert expand_word(word("$files"), context) == ["a.txt", "b.txt"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-d' '", ["-d "]),  # a quoted blank joins the literal before it
        ('a"  "b', ["a  b"]),
        ('x"$V"y', ["x1 2y"]),  # a quoted expansion is not split
        ("x$V", ["x1", "2"]),  # an unquoted one is: its first piece joins the literal
        ("$V'z'", ["1", "2z"]),
        ("$E$V", ["1", "2"]),
        ("a${P}b", ["a", "1", "b"]),  # blanks around the value end and start fields
        ("'-d'$V", ["-d1", "2"]),
    ],
)
def test_field_splitting_splits_only_what_an_expansion_produced(text, expected):
    context = ExpansionContext({"V": "1 2", "E": "", "P": " 1 "})
    assert expand_word(word(text), context) == expected


def test_expand_word_over_a_word_list():
    context = ExpansionContext({"x": "1"})
    words = [word("grep"), word("$x"), word("{a,b}")]
    assert [field for w in words for field in expand_word(w, context)] == ["grep", "1", "a", "b"]


def test_context_copy_is_independent():
    context = ExpansionContext({"a": "1"})
    clone = context.copy()
    clone.bind("a", "2")
    assert context.lookup("a") == "1"


# ---------------------------------------------------------------------------
# Special parameters ($?, $#, $@, $*)
# ---------------------------------------------------------------------------


def test_last_status_expansion():
    context = ExpansionContext(last_status=3)
    assert expand_word(word("$?"), context) == ["3"]


def test_last_status_unknown_strict_raises():
    with pytest.raises(ExpansionError):
        expand_word(word("$?"), ExpansionContext(strict=True))


def test_last_status_unknown_lenient_is_empty():
    assert expand_word(word("x$?"), ExpansionContext(strict=False)) == ["x"]


def test_positional_count():
    context = ExpansionContext(positional=["a", "b", "c"])
    assert expand_word(word("$#"), context) == ["3"]


def test_positional_parameters_by_index():
    context = ExpansionContext(positional=["first", "second"])
    assert expand_word(word("$1"), context) == ["first"]
    assert expand_word(word("$2"), context) == ["second"]
    # Out of range expands empty: unquoted that is no field at all, as in sh.
    assert expand_word(word("$3"), context) == []
    assert expand_word(word('"$3"'), context) == [""]


def test_empty_unquoted_expansion_yields_no_field():
    context = ExpansionContext({"X": "", "BLANK": "  "})
    assert expand_word(word("$X"), context) == []
    assert expand_word(word("$BLANK"), context) == []
    assert expand_word(word('"$X"'), context) == [""]
    # A quoted part holds the empty field open.
    assert expand_word(word('""$X'), context) == [""]


def test_unquoted_at_field_splits():
    context = ExpansionContext(positional=["a b", "c"])
    assert expand_word(word("$@"), context) == ["a", "b", "c"]
    assert expand_word(word("$*"), context) == ["a", "b", "c"]


def test_quoted_at_preserves_fields():
    context = ExpansionContext(positional=["a b", "c"])
    assert expand_word(word('"$@"'), context) == ["a b", "c"]


def test_quoted_at_empty_positional_disappears():
    context = ExpansionContext(positional=[])
    assert expand_word(word('"$@"'), context) == []


def test_quoted_star_joins_into_one_field():
    context = ExpansionContext(positional=["a b", "c"])
    assert expand_word(word('"$*"'), context) == ["a b c"]


def test_positional_unknown_strict_refuses():
    with pytest.raises(ExpansionError):
        expand_word(word("$#"), ExpansionContext(strict=True))
    with pytest.raises(ExpansionError):
        expand_word(word('"$@"'), ExpansionContext(strict=True))


# ---------------------------------------------------------------------------
# ${VAR:-default} and friends
# ---------------------------------------------------------------------------


def test_default_when_unset():
    # With complete runtime state, "absent" means "unset": use the default.
    context = ExpansionContext(strict=True, complete=True)
    assert expand_word(word("${missing:-fallback}"), context) == ["fallback"]
    # Lenient (interpreter) mode also uses the default.
    assert expand_word(word("${missing:-fallback}"), ExpansionContext(strict=False)) == [
        "fallback"
    ]


def test_default_refuses_in_strict_incomplete_mode():
    # Compile-time (AOT) contexts cannot tell "unset" from "assigned
    # dynamically earlier"; guessing the default would miscompile.
    with pytest.raises(ExpansionError):
        expand_word(word("${missing:-fallback}"), ExpansionContext(strict=True))


def test_default_when_empty():
    context = ExpansionContext({"v": ""})
    assert expand_word(word("${v:-fallback}"), context) == ["fallback"]
    # Without the colon, an empty-but-set variable keeps its value.
    assert expand_word(word("x${v-fallback}"), context) == ["x"]


def test_default_not_used_when_set():
    context = ExpansionContext({"v": "value"})
    assert expand_word(word("${v:-fallback}"), context) == ["value"]


def test_default_referencing_another_variable():
    context = ExpansionContext({"other": "seen"}, complete=True)
    assert expand_word(word("${missing:-$other}"), context) == ["seen"]


def test_assign_default_binds():
    context = ExpansionContext(strict=True, complete=True)
    assert expand_word(word("${v:=filled}"), context) == ["filled"]
    assert context.variables["v"] == "filled"


def test_assign_default_persists_into_adopted_dict():
    # A plain dict is adopted by reference, so := reaches the caller's state.
    state = {}
    context = ExpansionContext(state, strict=False)
    assert expand_word(word("${v:=5}"), context) == ["5"]
    assert state == {"v": "5"}


def test_alternative_form():
    context = ExpansionContext({"v": "x"}, complete=True)
    assert expand_word(word("${v:+alt}"), context) == ["alt"]
    assert expand_word(word("y${missing:+alt}"), context) == ["y"]


def test_error_form_raises_when_unset():
    with pytest.raises(ExpansionError):
        expand_word(word("${missing:?no value}"), ExpansionContext())


def test_default_form_for_special_parameter():
    context = ExpansionContext(last_status=0)
    assert expand_word(word("${?:-9}"), context) == ["0"]
    assert expand_word(word("${1:-none}"), ExpansionContext(positional=[])) == ["none"]


def test_command_substitution_with_runner():
    context = ExpansionContext(command_runner=lambda text: "ran:" + text + "\n")
    assert expand_word(word("$(seq 2)"), context) == ["ran:seq", "2"]
    assert expand_word(word('"$(seq 2)"'), context) == ["ran:seq 2"]


# ---------------------------------------------------------------------------
# Pathname expansion helpers
# ---------------------------------------------------------------------------


def test_word_may_glob():
    from repro.shell.expansion import word_may_glob

    assert word_may_glob(word("*.txt"))
    assert not word_may_glob(word("'*.txt'"))
    assert not word_may_glob(word("plain.txt"))
    assert word_may_glob(word("$pattern"))  # the value may introduce a glob


def glob(text, names, context=None):
    """``text`` expanded, then globbed against a filesystem holding ``names``."""
    resolver = VirtualFileSystem({name: [] for name in names}).glob
    parsed = word(text)
    return expand_pathnames(parsed, expand_word(parsed, context), resolver)


def test_expand_pathnames_matches_and_sorts():
    names = ["b.txt", "a.txt", "notes.md", ".hidden.txt"]
    assert glob("*.txt", names) == ["a.txt", "b.txt"]
    split = ExpansionContext({"pattern": "*.md keep"})
    assert glob("$pattern", names, split) == ["notes.md", "keep"]


def test_expand_pathnames_no_match_stays_literal():
    assert glob("*.zip", ["a.txt"]) == ["*.zip"]
    assert glob("'*.txt'", ["a.txt"]) == ["*.txt"]  # quoting suppresses globbing


def test_expand_pathnames_hidden_files_need_explicit_dot():
    names = [".hidden.txt", "shown.txt"]
    assert glob("*.txt", names) == ["shown.txt"]
    assert glob(".*.txt", names) == [".hidden.txt"]
