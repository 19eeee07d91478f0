"""Tests for the use-case and micro-benchmark harnesses."""

from paper.microbench import (
    gnu_parallel_comparison,
    naive_parallel_incorrectness,
    parallel_sort_comparison,
    pash_bio_correctness,
)
from paper.usecases import (
    noaa_correctness,
    noaa_usecase,
    wikipedia_correctness,
    wikipedia_usecase,
)


def test_noaa_usecase_speedups():
    results = noaa_usecase(widths=(2, 10), stations_per_year=500)
    two, ten = results["widths"][2], results["widths"][10]
    assert 1.5 <= two["speedup"] <= 2.5
    assert ten["speedup"] > two["speedup"]


def test_noaa_correctness_identical():
    outcome = noaa_correctness(years=[2015], stations=4)
    assert outcome["identical"]
    assert outcome["sequential"]
    assert outcome["sequential"][0].startswith("Maximum temperature for 2015")


def test_wikipedia_usecase_speedups():
    results = wikipedia_usecase(widths=(2, 16), url_count=2000)
    two, sixteen = results["widths"][2], results["widths"][16]
    assert 1.5 <= two["speedup"] <= 2.5
    assert sixteen["speedup"] > 8


def test_wikipedia_correctness_identical():
    outcome = wikipedia_correctness(pages=8, width=4)
    assert outcome["identical"]
    assert outcome["sequential"]


def test_parallel_sort_comparison_shape():
    rows = parallel_sort_comparison(widths=(4, 16), total_lines=20_000_000)
    assert [row["width"] for row in rows] == [4, 16]
    for row in rows:
        assert row["pash"] >= row["pash_no_eager"] * 0.95
    # At higher widths PaSh matches or beats the modelled sort --parallel.
    assert rows[-1]["pash"] >= rows[-1]["sort_parallel"] * 0.9


def test_naive_parallel_breaks_output():
    outcome = naive_parallel_incorrectness(lines=400, width=4)
    assert not outcome["identical"]
    assert outcome["differing_fraction"] > 0.5


def test_pash_transformation_is_correct_on_the_same_pipeline():
    assert pash_bio_correctness(lines=400, width=4)


def test_gnu_parallel_comparison_report():
    report = gnu_parallel_comparison(total_lines=2_000_000, width=8)
    assert report["pash_speedup"] > 1.0
    assert report["single_stage_speedup"] >= 1.0
    assert report["naive_differing_fraction"] > 0.5
    assert report["pash_output_identical"]
