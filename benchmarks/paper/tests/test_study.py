"""Tests for the Table 1 parallelizability study."""

from repro.annotations.classes import ParallelizabilityClass
from paper.study import (
    PAPER_TABLE1_COUNTS,
    ParallelizabilityStudy,
    standard_study,
)

S = ParallelizabilityClass.STATELESS
P = ParallelizabilityClass.PARALLELIZABLE_PURE
N = ParallelizabilityClass.NON_PARALLELIZABLE_PURE
E = ParallelizabilityClass.SIDE_EFFECTFUL


def test_counts_match_paper_table1():
    study = standard_study()
    for (suite, parallelizability), expected in PAPER_TABLE1_COUNTS.items():
        assert study.count(suite, parallelizability) == expected


def test_suite_sizes():
    study = standard_study()
    assert study.suite_size("coreutils") == 100
    assert study.suite_size("posix") == 155


def test_side_effectful_is_largest_class():
    study = standard_study()
    for suite in study.suites():
        counts = study.counts(suite)
        assert counts[E] == max(counts.values())


def test_percentages_sum_to_hundred():
    study = standard_study()
    for suite in study.suites():
        total = sum(study.percentage(suite, cls) for cls in ParallelizabilityClass)
        assert abs(total - 100.0) < 1e-6


def test_classify_individual_commands():
    study = standard_study()
    assert study.classify("cat", "coreutils") is S
    assert study.classify("sort", "coreutils") is P
    assert study.classify("sha1sum", "coreutils") is N
    assert study.classify("whoami", "coreutils") is E
    assert study.classify("grep", "posix") is S


def test_classify_unknown_raises():
    study = standard_study()
    try:
        study.classify("not-a-command", "coreutils")
    except KeyError:
        pass
    else:
        raise AssertionError("expected KeyError")


def test_commands_in_class_sorted_and_disjoint():
    study = standard_study()
    stateless = study.commands_in_class("coreutils", S)
    pure = study.commands_in_class("coreutils", P)
    assert stateless == sorted(stateless)
    assert not set(stateless) & set(pure)


def test_no_duplicate_commands_within_a_suite():
    study = standard_study()
    for suite in study.suites():
        names = [c.command for c in study.classifications if c.suite == suite]
        assert len(names) == len(set(names))


def test_table_rows_structure():
    rows = standard_study().table_rows()
    assert len(rows) == 4
    assert rows[0]["class"] == "Stateless"
    assert rows[0]["coreutils"] == 22
    assert rows[3]["posix"] == 105


def test_format_table_contains_all_classes():
    text = standard_study().format_table()
    for label in ("Stateless", "Parallelizable Pure", "Non-parallelizable", "Side-effectful"):
        assert label in text


def test_from_suites_builder():
    study = ParallelizabilityStudy.from_suites({"mini": {S: ["a"], E: ["b", "c"]}})
    assert study.suite_size("mini") == 3
    assert study.count("mini", S) == 1
    assert study.count("mini", E) == 2
