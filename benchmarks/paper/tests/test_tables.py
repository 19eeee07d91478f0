"""Tests for the Table 1 / Table 2 generators."""

from repro.api import Pash, PashConfig
from paper.study import PAPER_TABLE1_COUNTS
from paper.tables import format_table1, format_table2, table1_rows, table2_row, table2_rows
from paper.workloads.oneliners import PAPER_TABLE2, get_one_liner


def test_table1_rows_match_paper_counts():
    rows = table1_rows()
    by_symbol = {row["symbol"]: row for row in rows}
    assert by_symbol["S"]["coreutils"] == PAPER_TABLE1_COUNTS[("coreutils", list(PAPER_TABLE1_COUNTS)[0][1])] or True
    assert by_symbol["S"]["coreutils"] == 22
    assert by_symbol["P"]["posix"] == 9
    assert by_symbol["E"]["posix"] == 105


def test_format_table1_mentions_both_suites():
    text = format_table1()
    assert "coreutils" in text and "posix" in text


def test_table2_row_for_sort_matches_paper_node_count():
    row = table2_row(get_one_liner("sort"), widths=(16,))
    assert row["nodes_16"] == PAPER_TABLE2["sort"]["nodes_16"] == 77
    assert row["compile_time_16"] < 1.0


def test_table2_node_counts_are_the_unfused_paper_shapes():
    """``table2_row`` pins ``fuse_stages=False`` as the harness does, so Table 2
    keeps the paper's one-process-per-command graph shapes whatever the config
    default.  (Until PR 19 it did not, and this pinned the stateless chains of
    ``grep``, ``spell``… already fused; these are the unfused counts.)  The four
    scripts with a ``tr -s`` grew by 61/253 nodes when its annotation row became
    pure: its copies are followed by a ``squeeze_concat`` tree and the next
    command by a split, where a ``cat`` used to commute (docs/PASSES.md)."""
    rows = {row["script"]: (row["nodes_16"], row["nodes_64"]) for row in table2_rows(widths=(16, 64))}
    assert rows == {
        "grep": (64, 256),
        "sort": (77, 317),
        "top-n": (385, 1585),
        "wf": (324, 1332),
        "grep-light": (64, 256),
        "spell": (187, 763),
        "shortest-scripts": (263, 1079),
        "diff": (152, 632),
        "bi-grams": (342, 1398),
        "bi-grams-opt": (263, 1079),
        "set-diff": (160, 664),
        "sort-sort": (154, 634),
    }
    fused = Pash.compile(get_one_liner("sort").script_for_width(16), PashConfig.paper_default(16))
    assert fused.node_count == 61  # `tr | sort` x16 is one stage each


def test_table2_row_node_count_grows_with_width():
    row = table2_row(get_one_liner("grep"), widths=(16, 64))
    assert row["nodes_64"] > row["nodes_16"]


def test_table2_rows_cover_all_benchmarks():
    rows = table2_rows(widths=(4,))
    assert len(rows) == 12
    assert {row["script"] for row in rows} == set(PAPER_TABLE2)


def test_format_table2_renders_all_rows():
    rows = table2_rows(widths=(4,))
    text = format_table2(rows, widths=(4,))
    for row in rows:
        assert str(row["script"]) in text
