"""Tests for the §6.1 one-liner benchmark definitions."""

import pytest

from repro.dfg.builder import translate_script
from paper.workloads.base import chunk_names, chunked_line_counts
from paper.workloads.oneliners import ONE_LINERS, PAPER_TABLE2, get_one_liner


def test_twelve_benchmarks_matching_table2():
    assert len(ONE_LINERS) == 12
    assert {b.name for b in ONE_LINERS} == set(PAPER_TABLE2)


def test_get_one_liner_lookup():
    assert get_one_liner("sort").name == "sort"
    with pytest.raises(KeyError):
        get_one_liner("nope")


@pytest.mark.parametrize("one_liner", ONE_LINERS, ids=lambda b: b.name)
def test_scripts_parse_and_translate(one_liner):
    script = one_liner.script_for_width(4)
    result = translate_script(script)
    assert result.regions, f"{one_liner.name} produced no parallelizable regions"


@pytest.mark.parametrize("one_liner", ONE_LINERS, ids=lambda b: b.name)
def test_correctness_datasets_cover_script_inputs(one_liner):
    dataset = one_liner.correctness_dataset(width=3, lines=90)
    for name in chunk_names(3):
        assert name in dataset
    assert all(isinstance(lines, list) for lines in dataset.values())


def test_input_line_counts_sum_to_total():
    benchmark = get_one_liner("sort")
    counts = benchmark.input_line_counts(8)
    chunk_total = sum(v for k, v in counts.items() if k.startswith("in"))
    assert chunk_total == benchmark.simulated_total_lines


def test_spell_includes_dictionary():
    spell = get_one_liner("spell")
    assert "dict.txt" in spell.correctness_dataset(2, 50)
    assert "dict.txt" in spell.input_line_counts(2)
    assert "comm" in spell.script_for_width(2)


def test_grep_cost_override_is_expensive():
    grep = get_one_liner("grep")
    model = grep.cost_model()
    assert model.command_costs["grep"].seconds_per_line > 1e-5


def test_chunk_helpers():
    assert chunk_names(3) == ["in0.txt", "in1.txt", "in2.txt"]
    counts = chunked_line_counts(10, 3)
    assert sum(counts.values()) == 10
    assert max(counts.values()) - min(counts.values()) <= 1


def test_multi_statement_benchmarks_have_multiple_regions():
    for name in ("diff", "set-diff", "bi-grams"):
        script = get_one_liner(name).script_for_width(4)
        result = translate_script(script)
        assert len(result.regions) >= 2, name


def test_structures_mention_both_classes():
    for benchmark in ONE_LINERS:
        assert "S" in benchmark.structure or "P" in benchmark.structure
