"""Tests for the command registry and registry-level invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.annotations.library import standard_library
from repro.commands import CommandError, CommandRegistry, standard_registry
from repro.commands.argv import parse_argv
from repro.commands.base import CommandImplementation, concat_streams


def test_standard_registry_contains_evaluation_commands():
    registry = standard_registry()
    for name in (
        "cat", "grep", "tr", "cut", "sed", "sort", "uniq", "wc", "head", "tail",
        "comm", "tac", "xargs", "awk", "diff", "sha1sum",
        "html-to-text", "url-extract", "word-stem", "fetch-station", "fetch-page",
    ):
        assert name in registry


def test_lookup_by_path():
    registry = standard_registry()
    assert registry.lookup("/usr/bin/grep").name == "grep"


def test_lookup_unknown_raises():
    with pytest.raises(CommandError):
        standard_registry().lookup("no-such-command")


def test_run_dispatches():
    assert standard_registry().run("tr", ["a", "b"], [["abc"]]) == ["bbc"]


def test_register_function_and_copy():
    registry = CommandRegistry()
    registry.register_function("shout", lambda args, inputs: [line.upper() for line in inputs[0]])
    assert registry.run("shout", [], [["hi"]]) == ["HI"]
    clone = registry.copy()
    clone.register_function("whisper", lambda args, inputs: inputs[0])
    assert "whisper" not in registry


def test_every_parallelizable_annotated_command_with_impl_is_runnable():
    """Commands annotated as data-parallelizable and registered must run."""
    registry = standard_registry()
    library = standard_library()
    checked = 0
    for name in library.commands():
        if name not in registry:
            continue
        if not library.classify(name, []).is_data_parallelizable:
            continue
        implementation = registry.lookup(name)
        assert isinstance(implementation, CommandImplementation)
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# base helpers
# ---------------------------------------------------------------------------


def test_parsed_argv_has_exact_and_clustered_flags():
    assert parse_argv("sort", ["-r", "-n"]).has("-n")
    assert parse_argv("sort", ["-rn"]).has("-n")
    assert not parse_argv("no-spec", ["--name"]).has("-n")
    assert not parse_argv("sort", ["value"]).has("-n")


def test_parsed_argv_value_forms():
    assert parse_argv("head", ["-n", "5"]).value("-n") == "5"
    assert parse_argv("head", ["-n5"]).value("-n") == "5"
    assert parse_argv("sort", ["--parallel=3"]).value("--parallel") == "3"
    assert parse_argv("head", []).value("-n", default="7") == "7"


def test_concat_streams_order():
    assert concat_streams([["a"], [], ["b", "c"]]) == ["a", "b", "c"]


@given(st.lists(st.text(alphabet="abc ", max_size=8), max_size=30))
def test_grep_then_concat_equals_concat_then_grep(lines):
    """Stateless law: grep(x ++ y) == grep(x) ++ grep(y)."""
    registry = standard_registry()
    half = len(lines) // 2
    first, second = lines[:half], lines[half:]
    combined = registry.run("grep", ["a"], [lines])
    split = registry.run("grep", ["a"], [first]) + registry.run("grep", ["a"], [second])
    assert combined == split
