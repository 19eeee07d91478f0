"""Tests for the synthetic corpus generators."""

from paper.workloads import text


def test_text_lines_count_and_determinism():
    first = text.text_lines(100, seed=3)
    second = text.text_lines(100, seed=3)
    other = text.text_lines(100, seed=4)
    assert len(first) == 100
    assert first == second
    assert first != other


def test_text_lines_marker_rate():
    lines = text.text_lines(2000, seed=1, marker="lights", marker_rate=0.25)
    hits = sum(1 for line in lines if "lights" in line)
    assert 300 < hits < 700


def test_numeric_lines_are_integers():
    lines = text.numeric_lines(50, seed=2)
    assert all(line.lstrip("-").isdigit() for line in lines)


def test_csv_lines_have_columns():
    lines = text.csv_lines(10, columns=4)
    assert all(len(line.split()) == 4 for line in lines)


def test_dictionary_words_sorted_unique():
    words = text.dictionary_words(200)
    assert words == sorted(words)
    assert len(words) == len(set(words))
    assert len(words) == 200


def test_chunked_corpus_sizes():
    files = text.chunked_corpus(103, 4)
    assert len(files) == 4
    assert sum(len(lines) for lines in files.values()) == 103


def test_script_paths_format():
    lines = text.script_paths(20)
    assert all(line.split()[0].startswith("/") for line in lines)
