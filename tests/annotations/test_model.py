"""Tests for annotation records, clauses, predicates, and IO specs."""

import pytest

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.model import (
    And,
    AnnotationRecord,
    Assignment,
    Clause,
    CommandInvocation,
    IOSpec,
    NoOptions,
    Not,
    OptionPresent,
    OptionValueEquals,
    Or,
    Otherwise,
    classify_invocation,
    simple_record,
)
from repro.commands.base import CommandError

S = ParallelizabilityClass.STATELESS
P = ParallelizabilityClass.PARALLELIZABLE_PURE
E = ParallelizabilityClass.SIDE_EFFECTFUL


def test_invocation_splits_options_and_operands():
    invocation = CommandInvocation("grep", ["-i", "-v", "pattern", "file.txt"])
    assert invocation.argv.pairs == (("-i", ""), ("-v", ""))
    assert invocation.argv.operands == ("pattern", "file.txt")


def test_invocation_combined_short_flags():
    invocation = CommandInvocation("grep", ["-iv", "pattern"])
    assert invocation.argv.has("-i")
    assert invocation.argv.has("-v")
    assert not invocation.argv.has("-c")


def test_invocation_value_flags_not_operands():
    invocation = CommandInvocation("head", ["-n", "10", "file.txt"])
    assert invocation.argv.operands == ("file.txt",)


def test_invocation_dash_is_an_operand():
    invocation = CommandInvocation("comm", ["-13", "dict.txt", "-"])
    assert "-" in invocation.argv.operands


def test_option_value():
    invocation = CommandInvocation("sort", ["-k", "2", "file"])
    assert invocation.argv.value("-k") == "2"
    assert invocation.argv.value("-t") is None


def test_an_option_outside_the_spec_is_refused():
    with pytest.raises(CommandError, match="-o"):
        CommandInvocation("sort", ["-o", "out.txt", "in.txt"]).argv


def test_predicates():
    invocation = CommandInvocation("cmd", ["-a", "-b", "x"])
    assert OptionPresent("-a").matches(invocation)
    assert not OptionPresent("-z").matches(invocation)
    assert Not(OptionPresent("-z")).matches(invocation)
    assert And(OptionPresent("-a"), OptionPresent("-b")).matches(invocation)
    assert Or(OptionPresent("-z"), OptionPresent("-b")).matches(invocation)
    assert Otherwise().matches(invocation)
    assert not NoOptions().matches(invocation)
    assert NoOptions().matches(CommandInvocation("cmd", ["x"]))


def test_option_value_equals_predicate():
    invocation = CommandInvocation("sort", ["-t", ",", "file"])
    assert OptionValueEquals("-t", ",").matches(invocation)
    assert not OptionValueEquals("-t", ";").matches(invocation)


def test_iospec_resolution():
    invocation = CommandInvocation("comm", ["-1", "a.txt", "b.txt"])
    assert invocation.input_operands([IOSpec.arg(0)]) == (["a.txt"], ["-1", "b.txt"])
    assert invocation.input_operands([IOSpec.arg(1)]) == (["b.txt"], ["-1", "a.txt"])
    assert invocation.input_operands([IOSpec.args_slice(1)]) == (["b.txt"], ["-1", "a.txt"])
    assert invocation.input_operands([IOSpec.args_slice(0)]) == (["a.txt", "b.txt"], ["-1"])
    assert invocation.input_operands([IOSpec.stdin()]) == ([], ["-1", "a.txt", "b.txt"])


def test_iospec_out_of_range_is_empty():
    invocation = CommandInvocation("sort", [])
    assert invocation.input_operands([IOSpec.arg(2)]) == ([], [])


def test_iospec_str():
    assert str(IOSpec.arg(1)) == "args[1]"
    assert str(IOSpec.args_slice(1)) == "args[1:]"
    assert str(IOSpec.stdin()) == "stdin"


def test_first_matching_clause_wins():
    record = AnnotationRecord(
        "cmd",
        [
            Clause(OptionPresent("-x"), Assignment(P)),
            Clause(Otherwise(), Assignment(S)),
        ],
    )
    assert record.parallelizability(CommandInvocation("cmd", ["-x"])) is P
    assert record.parallelizability(CommandInvocation("cmd", [])) is S


def test_no_matching_clause_is_conservative():
    record = AnnotationRecord("cmd", [Clause(OptionPresent("-x"), Assignment(S))])
    assert record.parallelizability(CommandInvocation("cmd", [])) is E


def test_classify_invocation_without_record_is_side_effectful():
    assert classify_invocation(None, CommandInvocation("mystery", [])) is E


def test_simple_record_defaults():
    record = simple_record("tr", S)
    assignment = record.classify(CommandInvocation("tr", ["a", "b"]))
    assert assignment.parallelizability is S
    assert [spec.kind for spec in assignment.inputs] == ["stdin"]
    assert [spec.kind for spec in assignment.outputs] == ["stdout"]


def test_input_operands_are_dropped_by_position():
    """A pattern equal to a file name stays: the file goes, not every equal argument."""
    assert CommandInvocation("grep", ["foo", "foo"]).input_operands([IOSpec.args_slice(1)]) == (["foo"], ["foo"])
    assert CommandInvocation("head", ["-n", "5", "5"]).input_operands([IOSpec.args_slice(0)]) == (["5"], ["-n", "5"])
