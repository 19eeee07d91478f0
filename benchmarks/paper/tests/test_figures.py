"""Tests for the Fig. 7 / Fig. 8 generators (small widths to stay fast)."""

from paper.figures import (
    best_configuration_speedups,
    figure7_series,
    figure8_point,
    figure8_series,
    figure8_summary,
)
from paper.workloads.oneliners import get_one_liner
from paper.workloads.unix50 import get_pipeline


def test_figure7_series_has_all_configurations():
    series = figure7_series(get_one_liner("sort"), widths=(2, 8))
    assert set(series) == {
        "Par + Split",
        "Par + B. Split",
        "Parallel",
        "Blocking Eager",
        "No Eager",
    }
    assert set(series["Par + Split"]) == {2, 8}


def test_figure7_sort_shape_matches_paper():
    series = figure7_series(get_one_liner("sort"), widths=(2, 8, 16))
    best = series["Par + Split"]
    assert 1.5 <= best[2] <= 2.5
    assert best[8] > best[2]
    assert best[16] < 12  # sort saturates well below linear scaling
    assert series["No Eager"][16] <= best[16]


def test_figure7_grep_scales_nearly_linearly():
    series = figure7_series(get_one_liner("grep"), widths=(2, 16))
    assert series["Par + Split"][16] > 10


def test_figure7_topn_split_beats_no_split():
    series = figure7_series(get_one_liner("top-n"), widths=(8,))
    assert series["Par + Split"][8] > series["Parallel"][8]


def test_best_configuration_speedups_monotone_in_width():
    averages = best_configuration_speedups(
        benchmarks=[get_one_liner("grep"), get_one_liner("sort")], widths=(2, 8)
    )
    assert averages[8] > averages[2] > 1.0


def test_figure8_point_groups():
    fast = figure8_point(get_pipeline(0), width=8)
    assert fast["speedup"] > 2.0
    blocked = figure8_point(get_pipeline(13), width=8)
    assert 0.8 <= blocked["speedup"] <= 1.1
    tiny = figure8_point(get_pipeline(2), width=8)
    assert tiny["speedup"] < 1.0


def test_figure8_series_and_summary():
    pipelines = [get_pipeline(i) for i in (0, 2, 4, 13)]
    points = figure8_series(width=8, pipelines=pipelines)
    assert len(points) == 4
    summary = figure8_summary(points)
    assert set(summary) == {"average", "median", "weighted_average"}
    assert summary["average"] > 0
