"""Tests for the standard annotation library."""

import pytest

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.library import KNOWN_AGGREGATORS, AnnotationLibrary, standard_library
from repro.annotations.model import CommandInvocation, simple_record
from repro.commands.base import CommandError
from repro.runtime.aggregators import AGGREGATORS

S = ParallelizabilityClass.STATELESS
P = ParallelizabilityClass.PARALLELIZABLE_PURE
N = ParallelizabilityClass.NON_PARALLELIZABLE_PURE
E = ParallelizabilityClass.SIDE_EFFECTFUL


def test_core_stateless_commands():
    library = standard_library()
    assert library.classify("grep", ["foo"]) is S
    assert library.classify("tr", ["a", "b"]) is S
    assert library.classify("cut", ["-d", " ", "-f", "1"]) is S
    assert library.classify("cat", []) is S
    assert library.classify("sed", ["s/a/b/"]) is S


def test_core_pure_commands():
    library = standard_library()
    assert library.classify("sort", ["-rn"]) is P
    assert library.classify("uniq", ["-c"]) is P
    assert library.classify("wc", ["-l"]) is P
    assert library.classify("head", ["-n", "5"]) is P
    assert library.classify("comm", ["a", "b"]) is P


def test_flags_change_class():
    library = standard_library()
    assert library.classify("cat", []) is S
    # Line numbers run across the whole input: no partial outputs to merge.
    assert library.classify("cat", ["-n"]) is N
    assert library.classify("cat", ["-b"]) is N
    assert library.classify("grep", ["foo"]) is S
    assert library.classify("grep", ["-c", "foo"]) is P
    assert library.classify("grep", ["-n", "foo"]) is N
    assert library.classify("sed", ["s/a/b/"]) is S
    assert library.classify("sed", ["-n", "1p"]) is E
    # Partial `uniq -d/-u` outputs cannot be boundary-merged by merge_uniq, nor
    # `uniq -f/-s/-w` ones (a merged group prints its first line, compared in part).
    assert library.classify("uniq", []) is P
    for flag in ("-d", "-u", "-cd", "-f1", "-s2", "-w3", "-cf1"):
        assert library.classify("uniq", [flag]) is N
    with pytest.raises(CommandError):  # `uniq -D` is not implemented: refused
        library.classify("uniq", ["-D"])


def test_non_parallelizable_and_side_effectful():
    library = standard_library()
    assert library.classify("sha1sum", []) is N
    assert library.classify("diff", ["a", "b"]) is N
    assert library.classify("curl", ["http://x"]) is E
    assert library.classify("rm", ["-rf", "x"]) is E
    assert library.classify("awk", ["{print $1}"]) is E


def test_unknown_command_defaults_to_side_effectful():
    library = standard_library()
    assert library.classify("totally-unknown-tool", []) is E


def test_custom_usecase_commands_are_annotated():
    library = standard_library()
    for name in ("url-extract", "word-stem", "html-to-text", "lowercase", "strip-punct", "bigrams"):
        assert library.classify(name, []) is S


def test_aggregators_exist_for_pure_commands():
    library = standard_library()
    for command in ("sort", "uniq", "wc", "tac", "head", "tail"):
        aggregator = library.aggregator_for(command)
        assert aggregator is not None
        assert aggregator in AGGREGATORS


def test_known_aggregator_names_are_implemented():
    for name in KNOWN_AGGREGATORS:
        assert name in AGGREGATORS


def test_lookup_by_path_basename():
    library = standard_library()
    assert library.lookup("/usr/bin/grep") is library.lookup("grep")


def test_io_spec_for_grep():
    library = standard_library()
    inputs, outputs = library.io_spec("grep", ["foo", "f1", "f2"])
    assert [str(spec) for spec in inputs] == ["args[1:]"]
    assert [str(spec) for spec in outputs] == ["stdout"]


def test_register_and_copy_are_independent():
    library = AnnotationLibrary()
    library.register(simple_record("mytool", S))
    clone = library.copy()
    clone.register(simple_record("other", P))
    assert "mytool" in library and "mytool" in clone
    assert "other" not in library


def test_register_dsl():
    library = AnnotationLibrary()
    library.register_dsl("mytool {\n| otherwise => (P, [stdin], [stdout])\n}")
    assert library.classify("mytool", []) is P


def test_option_values_are_never_file_operands():
    library = standard_library()
    for name, arguments in (("head", ["-n", "10", "f.txt"]), ("cut", ["-d", ",", "-f", "1", "f.txt"])):
        invocation = CommandInvocation(name, arguments)
        inputs = library.lookup(name).classify(invocation).inputs
        assert invocation.input_operands(inputs) == (["f.txt"], arguments[:-1])


def test_standard_library_parses_the_dsl_once_per_process(monkeypatch):
    from repro.annotations import library as library_module

    standard_library()  # whoever ran first has paid for the parse
    monkeypatch.setattr(
        library_module,
        "parse_annotations",
        lambda text: (_ for _ in ()).throw(AssertionError("the DSL was parsed again")),
    )
    assert standard_library().classify("grep", ["-c", "x"]) is P


def test_mutating_one_standard_library_does_not_leak_into_the_next():
    first = standard_library()
    grep = first.lookup("grep")
    grep.aggregator = "concat"
    grep.configuration_operands = ()
    grep.clauses.clear()
    first.register(simple_record("sort", E))
    first.register(simple_record("mytool", P))

    second = standard_library()
    assert second.lookup("grep") is not grep
    assert second.lookup("grep").aggregator == "sum"
    assert second.lookup("grep").configuration_operands == (0,)
    assert second.classify("grep", ["-c", "x"]) is P
    assert second.classify("sort", []) is P
    assert "mytool" not in second
