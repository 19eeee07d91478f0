"""The one reading of argv: every spelling of an invocation parses alike.

For every command's :class:`OptionSpec`, hypothesis draws a set of options
(with values where the spec says so) and operands, then writes them as
separate tokens, clustered, with values attached, permuted (operands first)
and ``--``-terminated; each spelling must give the same ``(flag, value)``
pairs and the same operands.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations.model import CommandInvocation, IOSpec
from repro.commands.argv import SPECS, OptionSpec, declare_spec, parse_argv
from repro.commands.base import CommandError

VALUES = st.text(alphabet="ab12:, ", min_size=1, max_size=3)
OPERANDS = st.lists(st.text(alphabet="xyz.", min_size=1, max_size=3), max_size=3)


def short_options(spec: OptionSpec):
    """``[(letter, takes_value)]`` of a getopt option string."""
    return [(letter, colon == ":") for letter, colon in re.findall(r"(\w)(:?)", spec.short)]


@st.composite
def invocations(draw, spec: OptionSpec):
    """``(short, long, operands)``: ``short`` is ``[(letter, value or None)]``."""
    letters = short_options(spec)
    chosen = draw(st.lists(st.sampled_from(letters), unique=True)) if letters else []
    short = [(letter, draw(VALUES) if valued else None) for letter, valued in chosen]
    names = draw(st.lists(st.sampled_from(spec.long), unique=True)) if spec.long else []
    long = [(name.rstrip("="), draw(VALUES) if name.endswith("=") else None) for name in names]
    return short, long, draw(OPERANDS)


def long_tokens(long, attached):
    tokens = []
    for name, value in long:
        if value is None:
            tokens.append("--" + name)
        else:
            tokens += ["--%s=%s" % (name, value)] if attached else ["--" + name, value]
    return tokens


def spellings(short, long, operands, posix):
    """The same invocation written five ways (``posix``: no permuting)."""
    separate = [token for letter, value in short for token in ["-" + letter] + ([value] if value else [])]
    attached = ["-%s%s" % (letter, value or "") for letter, value in short]
    # Valueless flags in one cluster that ends in at most one valued option.
    plain = "".join(letter for letter, value in short if value is None)
    valued = [(letter, value) for letter, value in short if value is not None]
    clustered = []
    if plain or valued:
        head = plain + (valued[0][0] if valued else "")
        clustered = ["-" + head] + ([valued[0][1]] if valued else [])
        clustered += ["-%s%s" % pair for pair in valued[1:]]
    options = separate + long_tokens(long, False)
    written = {
        "separate": options + operands,
        "clustered": clustered + long_tokens(long, True) + operands,
        "attached": attached + long_tokens(long, True) + operands,
        "terminated": options + ["--"] + operands,
    }
    if not posix:
        written["permuted"] = operands + attached + long_tokens(long, False)
    return written


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_spelling_parses_alike(name, data):
    spec = SPECS[name]
    short, long, operands = data.draw(invocations(spec))
    readings = {
        how: parse_argv(name, argv)
        for how, argv in spellings(short, long, operands, spec.short.startswith("+")).items()
    }
    expected_pairs = sorted(
        [("-" + letter, value or "") for letter, value in short] + [("--" + n, v or "") for n, v in long]
    )
    for how, reading in readings.items():
        assert sorted(reading.pairs) == expected_pairs, (how, reading)
        assert list(reading.operands) == operands, (how, reading)


@pytest.mark.parametrize(
    "name, spellings",
    [
        ("sort", [["-rn", "-k2"], ["-r", "-n", "-k", "2"], ["-nrk2"], ["-k2", "-rn"], ["-rnk", "2"]]),
        ("sort", [["-rt:", "-k2"], ["-r", "-t", ":", "-k", "2"], ["-k2", "-rt", ":"]]),
        ("cut", [["-d ", "-f2"], ["-d", " ", "-f", "2"], ["-f2", "-d", " "]]),
        ("head", [["-5"], ["-n", "5"], ["-n5"]]),
        ("tail", [["+3"], ["-n", "+3"], ["-n+3"]]),
    ],
)
def test_spellings_of_one_invocation_agree(name, spellings):
    readings = {tuple(sorted(parse_argv(name, argv).pairs)) for argv in spellings}
    assert len(readings) == 1, readings


def test_operands_keep_their_positions():
    argv = parse_argv("grep", ["-i", "foo", "-v", "foo", "--", "-x"])
    assert argv.operands == ("foo", "foo", "-x")
    assert argv.positions == (1, 3, 5)


def test_xargs_reads_options_only_before_its_command():
    argv = parse_argv("xargs", ["-n", "1", "grep", "-i", "x"])
    assert argv.pairs == (("-n", "1"),)
    assert argv.operands == ("grep", "-i", "x")


def test_the_value_given_last_wins():
    assert parse_argv("head", ["-5", "-n", "3"]).value("-n") == "3"
    assert parse_argv("head", ["-n", "-2"]).value("-n") == "-2"  # all but the last two


@pytest.mark.parametrize(
    "name, argv",
    [("head", ["-c", "5"]), ("tail", ["-c5"]), ("fold", ["-sw", "3"]), ("sort", ["-o", "out.txt"]),
     ("join", ["-t", ","]), ("nl", ["-ba"]), ("uniq", ["-D"]), ("cut", ["-b", "1"]), ("grep", ["-r", "x"])],
)
def test_an_option_outside_the_spec_is_refused(name, argv):
    with pytest.raises(CommandError):
        parse_argv(name, argv)


def test_without_a_spec_each_dash_token_is_valueless_flags():
    argv = parse_argv("no-such-command", ["-ab", "x", "-", "--name=v"])
    assert argv.pairs == (("-a", ""), ("-b", ""), ("--name", "v"))
    assert argv.operands == ("x", "-")


def test_a_declared_spec_is_read_by_the_annotation_side():
    invocation = CommandInvocation("mytool", ["-w", "5", "in.txt"])
    assert invocation.input_operands([IOSpec.args_slice(0)])[0] == ["5", "in.txt"]
    declare_spec("mytool", OptionSpec("w:"))
    try:
        assert invocation.input_operands([IOSpec.args_slice(0)]) == (["in.txt"], ["-w", "5"])
        with pytest.raises(CommandError):
            parse_argv("mytool", ["-q"])
    finally:
        declare_spec("mytool", None)
    assert parse_argv("mytool", ["-q"]).pairs == (("-q", ""),)
