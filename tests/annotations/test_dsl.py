"""Tests for the Appendix-A annotation language parser."""

import pytest

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.dsl import (
    AnnotationParseError,
    load_annotation_map,
    parse_annotation,
    parse_annotations,
    parse_io_spec,
    render_annotation,
)
from repro.annotations.model import CommandInvocation
from repro.commands.argv import OptionSpec, declare_spec

S = ParallelizabilityClass.STATELESS
P = ParallelizabilityClass.PARALLELIZABLE_PURE

COMM_RECORD = r"""
comm {
| -1 /\ -3 => (S, [args[1]], [stdout])
| -2 /\ -3 => (S, [args[0]], [stdout])
| otherwise => (P, [args[0], args[1]], [stdout])
}
"""


def test_paper_comm_example():
    record = parse_annotation(COMM_RECORD)
    assert record.command == "comm"
    assert len(record.clauses) == 3
    assert record.parallelizability(CommandInvocation("comm", ["-1", "-3", "a", "b"])) is S
    assert record.parallelizability(CommandInvocation("comm", ["-2", "-3", "a", "b"])) is S
    assert record.parallelizability(CommandInvocation("comm", ["a", "b"])) is P


def test_comm_clause_inputs_are_ordered():
    record = parse_annotation(COMM_RECORD)
    general = record.clauses[-1].assignment
    assert [str(spec) for spec in general.inputs] == ["args[0]", "args[1]"]
    assert [str(spec) for spec in general.outputs] == ["stdout"]


def test_underscore_is_otherwise():
    record = parse_annotation("x {\n| _ => (S, [stdin], [stdout])\n}")
    assert record.parallelizability(CommandInvocation("x", ["-q"])) is S


def test_keyword_connectives():
    record = parse_annotation(
        "x {\n| -a and not -b => (P, [stdin], [stdout])\n| otherwise => (S, [stdin], [stdout])\n}"
    )
    assert record.parallelizability(CommandInvocation("x", ["-a"])) is P
    assert record.parallelizability(CommandInvocation("x", ["-a", "-b"])) is S


def test_or_connective():
    record = parse_annotation(
        "x {\n| -a \\/ -b => (P, [stdin], [stdout])\n| otherwise => (S, [stdin], [stdout])\n}"
    )
    assert record.parallelizability(CommandInvocation("x", ["-b"])) is P


def test_value_predicate():
    record = parse_annotation(
        'x {\n| value -d = "," => (P, [stdin], [stdout])\n| otherwise => (S, [stdin], [stdout])\n}'
    )
    declare_spec("x", OptionSpec("d:"))  # without a spec, ``-d`` takes no value
    try:
        assert record.parallelizability(CommandInvocation("x", ["-d", ","])) is P
        assert record.parallelizability(CommandInvocation("x", ["-d;"])) is S
    finally:
        declare_spec("x", None)


def test_multiple_records():
    records = parse_annotations(COMM_RECORD + "\ncat {\n| otherwise => (S, [args[0:]], [stdout])\n}")
    assert [record.command for record in records] == ["comm", "cat"]


def test_load_annotation_map():
    mapping = load_annotation_map(COMM_RECORD)
    assert "comm" in mapping


def test_parse_io_spec_variants():
    assert parse_io_spec("stdin").kind == "stdin"
    assert parse_io_spec("args[2]").index == 2
    spec = parse_io_spec("args[1:3]")
    assert (spec.start, spec.end) == (1, 3)
    assert parse_io_spec("args[:]").start is None


def test_parse_io_spec_invalid_raises():
    with pytest.raises(AnnotationParseError):
        parse_io_spec("files[0]")


def test_missing_clause_raises():
    with pytest.raises(AnnotationParseError):
        parse_annotation("cmd { }")


def test_malformed_assignment_raises():
    with pytest.raises(AnnotationParseError):
        parse_annotation("cmd {\n| otherwise => (S, stdin, stdout)\n}")


def test_render_round_trip():
    record = parse_annotation(COMM_RECORD)
    rendered = render_annotation(record)
    reparsed = parse_annotation(rendered)
    assert len(reparsed.clauses) == len(record.clauses)
    assert reparsed.parallelizability(CommandInvocation("comm", ["a", "b"])) is P
