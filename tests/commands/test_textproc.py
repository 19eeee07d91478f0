"""Tests for grep, tr, cut, sed, awk, and friends."""

import os
import subprocess

import pytest

from repro.commands import textproc
from repro.commands.base import CommandError, decode_text
from repro.dfg.nodes import CommandNode
from repro.engine.workers import host_command_available


# ---------------------------------------------------------------------------
# grep
# ---------------------------------------------------------------------------


def test_grep_basic_filter():
    assert textproc.grep(["foo"], [["foo bar", "baz", "xfoox"]]) == ["foo bar", "xfoox"]


def test_grep_case_insensitive():
    assert textproc.grep(["-i", "foo"], [["FOO", "bar"]]) == ["FOO"]


def test_grep_invert():
    assert textproc.grep(["-v", "foo"], [["foo", "bar"]]) == ["bar"]


def test_grep_combined_iv():
    assert textproc.grep(["-iv", "foo"], [["FOO", "bar"]]) == ["bar"]


def test_grep_count():
    assert textproc.grep(["-c", "a"], [["a", "b", "aa"]]) == ["2"]


def test_grep_whole_line():
    assert textproc.grep(["-x", "abc"], [["abc", "abcd"]]) == ["abc"]


def test_grep_word_match():
    assert textproc.grep(["-w", "cat"], [["cat dog", "category"]]) == ["cat dog"]


def test_grep_fixed_string():
    assert textproc.grep(["-F", "a.b"], [["a.b", "axb"]]) == ["a.b"]


def test_grep_regex():
    assert textproc.grep(["li.*da"], [["light and dark", "dark and light"]]) == ["light and dark"]


def test_grep_multiple_inputs_in_order():
    out = textproc.grep(["x"], [["x1", "y"], ["x2"]])
    assert out == ["x1", "x2"]


def test_grep_requires_pattern():
    with pytest.raises(CommandError):
        textproc.grep([], [["a"]])


def test_grep_bad_regex_raises():
    # ``(`` is a literal in a basic regular expression; ``\(`` opens a group.
    for arguments in (["-E", "("], ["\\("]):
        with pytest.raises(CommandError):
            textproc.grep(arguments, [["a"]])


# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------


def test_tr_simple_translation():
    assert textproc.tr(["a", "b"], [["abc", "aaa"]]) == ["bbc", "bbb"]


def test_tr_range_translation():
    assert textproc.tr(["A-Z", "a-z"], [["HeLLo"]]) == ["hello"]


def test_tr_delete():
    assert textproc.tr(["-d", "aeiou"], [["banana split"]]) == ["bnn splt"]


def test_tr_squeeze():
    assert textproc.tr(["-s", " "], [["a   b  c"]]) == ["a b c"]


def test_tr_space_to_newline_splits_lines():
    assert textproc.tr([" ", "\\n"], [["a b c"]]) == ["a", "b", "c"]


def test_tr_complement_squeeze_word_split():
    out = textproc.tr(["-cs", "A-Za-z", "\\n"], [["one two,three"]])
    assert out == ["one", "two", "three"]


def test_tr_squeeze_absorbs_the_final_newline_into_a_trailing_run():
    """A stream ending in squeezed characters must not grow an empty line:
    the implicit final newline belongs to the squeeze run (GNU behaviour)."""
    arguments = ["-cs", "A-Za-z", "\\n"]
    lines = ["hello world!!", "...", "x y?"]
    expected = ["hello", "world", "x", "y"]
    assert textproc.tr(arguments, [["hello world!!"]]) == ["hello", "world"]
    assert textproc.tr(arguments, [lines]) == expected
    assert textproc.tr(arguments, [["!!"]]) == [""]
    assert textproc.tr(["-s", "\\n"], [["a", "", "", "b", ""]]) == ["a", "b"]

    if host_command_available(CommandNode(name="tr", arguments=arguments), True):
        completed = subprocess.run(
            ["tr", "-cs", "A-Za-z", "\\n"],
            input="".join(line + "\n" for line in lines).encode(),
            stdout=subprocess.PIPE,
            env=dict(os.environ, LC_ALL="C"),
            check=True,
        )
        assert completed.stdout.decode().splitlines() == expected


def test_tr_punct_class_delete():
    assert textproc.tr(["-d", "[:punct:]"], [["a,b.c!"]]) == ["abc"]


def test_tr_empty_input():
    assert textproc.tr(["a", "b"], [[]]) == []


@pytest.mark.parametrize(
    "escaped, expected",
    [("\\r", "\r"), ("\\f", "\f"), ("\\v", "\v"), ("\\a", "\a"), ("\\b", "\b"), ("\\n", "\n"),
     ("\\t", "\t"), ("\\\\", "\\"), ("\\015", "\r"), ("\\0", "\x00"), ("\\101-\\103", "ABC"),
     ("\\400", " 0"), ("\\351", decode_text(b"\xe9")), ("\\q", "q"), ("a\\", "a\\")],
)
def test_tr_sets_read_gnu_escapes(escaped, expected):
    """``\\NNN`` is the byte NNN (at most ``\\377``), as the stream codec decodes it alone."""
    assert textproc._expand_tr_set(escaped) == expected


def test_tr_deletes_an_escaped_carriage_return():
    assert textproc.tr(["-d", "\\r"], [["ar\r"]]) == textproc.tr(["-d", "\\015"], [["ar\r"]]) == ["ar"]


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


def test_cut_fields():
    assert textproc.cut(["-d", " ", "-f", "2"], [["a b c", "x y z"]]) == ["b", "y"]


def test_cut_field_ranges():
    assert textproc.cut(["-d", ",", "-f", "1,3"], [["a,b,c,d"]]) == ["a,c"]


def test_cut_characters():
    assert textproc.cut(["-c", "2-4"], [["abcdef"]]) == ["bcd"]


def test_cut_missing_delimiter_passes_line_through():
    assert textproc.cut(["-d", ",", "-f", "2"], [["no-delimiter"]]) == ["no-delimiter"]


def test_cut_requires_spec():
    with pytest.raises(CommandError):
        textproc.cut([], [["abc"]])


CUT_LINES = [
    "a b c d e f g h i j",
    "no-delimiter-here",  # printed whole with -f
    "one two",  # fields 3.. are out of range
    " leading and  double  spaces ",
    "",
    "x",
]


@pytest.mark.parametrize(
    "arguments,expected_first",
    [
        (["-d", " ", "-f", "1-4"], "a b c d"),
        (["-d", " ", "-f", "2,5-"], "b e f g h i j"),
        (["-d", " ", "-f", "-3"], "a b c"),
        (["-d", " ", "-f", "9"], "i"),  # out of range on every other line
        (["-d", " ", "-f", "5-,2,2-3"], "b c e f g h i j"),  # unordered, overlapping
        (["-c", "2-5,9"], " b ce"),
        (["-c", "3-"], "b c d e f g h i j"),
    ],
)
def test_cut_selection_plan_matches_host_cut(arguments, expected_first):
    output = textproc.cut(arguments, [CUT_LINES])
    assert output[0] == expected_first
    assert len(output) == len(CUT_LINES)
    if host_command_available(CommandNode(name="cut", arguments=arguments), True):
        completed = subprocess.run(
            ["cut"] + arguments,
            input="".join(line + "\n" for line in CUT_LINES).encode(),
            stdout=subprocess.PIPE,
            env=dict(os.environ, LC_ALL="C"),
            check=True,
        )
        assert completed.stdout.decode().split("\n")[:-1] == output


# ---------------------------------------------------------------------------
# sed
# ---------------------------------------------------------------------------


def test_sed_basic_substitution():
    assert textproc.sed(["s/a/b/"], [["banana"]]) == ["bbnana"]


def test_sed_global_substitution():
    assert textproc.sed(["s/a/b/g"], [["banana"]]) == ["bbnbnb"]


def test_sed_custom_delimiter():
    assert textproc.sed(["s;^;prefix/;"], [["file"]]) == ["prefix/file"]


def test_sed_y_transliteration():
    assert textproc.sed(["y/ab/xy/"], [["aabb"]]) == ["xxyy"]


def test_sed_e_flag():
    assert textproc.sed(["-e", "s/a/b/"], [["aaa"]]) == ["baa"]


def test_sed_dash_n_unsupported():
    with pytest.raises(CommandError):
        textproc.sed(["-n", "1p"], [["a"]])


def test_sed_requires_script():
    with pytest.raises(CommandError):
        textproc.sed([], [["a"]])


# ---------------------------------------------------------------------------
# awk subset
# ---------------------------------------------------------------------------


def test_awk_print_column():
    assert textproc.awk(["{print $2}"], [["a b c"]]) == ["b"]


def test_awk_print_column_and_line():
    assert textproc.awk(["{print $2, $0}"], [["5 apples"]]) == ["apples 5 apples"]


def test_awk_print_whole_line():
    assert textproc.awk(["{print}"], [["x y"]]) == ["x y"]


def test_awk_custom_separator():
    assert textproc.awk(["-F", ",", "{print $2}"], [["a,b,c"]]) == ["b"]


def test_awk_unsupported_program_raises():
    with pytest.raises(CommandError):
        textproc.awk(["BEGIN {x=0} {x+=1} END {print x}"], [["a"]])


# ---------------------------------------------------------------------------
# misc stateless helpers
# ---------------------------------------------------------------------------


def test_fold_wraps_lines():
    assert textproc.fold(["-w", "3"], [["abcdefgh"]]) == ["abc", "def", "gh"]


def test_rev_reverses_characters():
    assert textproc.rev([], [["abc", "xy"]]) == ["cba", "yx"]


def test_iconv_drops_non_ascii():
    assert textproc.iconv(["-c"], [["café"]]) == ["caf"]


def test_strings_extracts_printable_runs():
    assert textproc.strings([], [["ab\x00cdefgh"]]) == ["cdefgh"]


def test_expand_tabs():
    assert textproc.expand([], [["a\tb"]]) == ["a       b"]


def test_gunzip_is_passthrough():
    assert textproc.gunzip([], [["data"]]) == ["data"]


# ---------------------------------------------------------------------------
# xargs
# ---------------------------------------------------------------------------


def test_xargs_batches_arguments():
    out = textproc.xargs(["-n", "2", "echo"], [["a", "b", "c"]])
    assert out == ["a b", "c"]


def test_xargs_attached_n_value():
    out = textproc.xargs(["-n1", "echo"], [["a", "b"]])
    assert out == ["a", "b"]


def test_xargs_passes_command_flags():
    out = textproc.xargs(["-n", "1", "grep", "-c", "a"], [["abc"]])
    # grep -c a over the operand file-less batch: the batch becomes operands,
    # so grep treats "abc" as its input file list resolved to nothing; the
    # wrapped call still returns a single count line.
    assert len(out) == 1


def test_xargs_requires_command():
    with pytest.raises(CommandError):
        textproc.xargs(["-n", "1"], [["a"]])
