"""Tests for the Unix50 pipeline corpus."""

import pytest

from repro.dfg.builder import translate_script
from paper.workloads.unix50 import UNIX50_PIPELINES, average_stage_count, get_pipeline


def test_thirty_four_pipelines_with_stable_indices():
    assert len(UNIX50_PIPELINES) == 34
    assert [p.index for p in UNIX50_PIPELINES] == list(range(34))


def test_average_depth_close_to_paper():
    # Paper: 2-12 stages, average 5.58.
    assert 4.0 <= average_stage_count() <= 7.0
    assert all(2 <= p.stage_count() <= 12 for p in UNIX50_PIPELINES)


def test_expected_groups_present():
    groups = {p.expected_group for p in UNIX50_PIPELINES}
    assert groups == {"speedup", "nospeedup", "slowdown"}
    nospeedup = [p.index for p in UNIX50_PIPELINES if p.expected_group == "nospeedup"]
    slowdown = [p.index for p in UNIX50_PIPELINES if p.expected_group == "slowdown"]
    assert 13 in nospeedup
    assert len(slowdown) == 3


def test_get_pipeline_lookup():
    assert get_pipeline(13).expected_group == "nospeedup"
    with pytest.raises(KeyError):
        get_pipeline(99)


@pytest.mark.parametrize("pipeline", UNIX50_PIPELINES, ids=lambda p: f"u{p.index}")
def test_scripts_parse(pipeline):
    from repro.shell.parser import parse

    parse(pipeline.script_for_width(4))


@pytest.mark.parametrize(
    "pipeline",
    [p for p in UNIX50_PIPELINES if p.expected_group == "speedup"],
    ids=lambda p: f"u{p.index}",
)
def test_speedup_group_pipelines_translate(pipeline):
    result = translate_script(pipeline.script_for_width(4))
    assert result.regions


@pytest.mark.parametrize(
    "pipeline",
    [p for p in UNIX50_PIPELINES if p.expected_group == "nospeedup"],
    ids=lambda p: f"u{p.index}",
)
def test_nospeedup_group_is_rejected_by_the_conservative_front_end(pipeline):
    result = translate_script(pipeline.script_for_width(4))
    assert result.rejected


def test_correctness_dataset_shapes():
    dataset = get_pipeline(0).correctness_dataset(4, lines=40)
    assert len(dataset) == 4
    assert sum(len(v) for v in dataset.values()) == 40


def test_input_line_counts_scale_with_group():
    big = get_pipeline(0).input_line_counts(4)
    tiny = get_pipeline(2).input_line_counts(4)
    assert sum(big.values()) > sum(tiny.values())
