"""Tests for the end-to-end compiler."""

from repro.api import Pash, PashConfig


def test_single_pipeline_is_replaced():
    compiled = Pash.compile(
        "cat a.txt b.txt | grep x > out.txt", PashConfig.paper_default(2, fuse_stages=False)
    )
    assert "mkfifo" in compiled.text
    assert compiled.stats.regions_parallelized == 1
    assert compiled.stats.regions_rejected == 0
    assert compiled.node_count > 3


def test_untouched_fragments_are_preserved():
    source = "cat a.txt b.txt | grep x > f3 && sort f3"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    # The && structure survives; the right-hand side is also parallelized (via
    # split) or left as plain `sort f3`.
    assert "&&" in compiled.text


def test_rejected_statements_appear_verbatim():
    source = "cat a.txt | awk '{print $1}'\ncat b.txt c.txt | grep x > out.txt"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert "awk" in compiled.text
    assert compiled.stats.regions_rejected == 1
    assert compiled.stats.regions_parallelized == 1


def test_for_loop_with_dynamic_variable_is_preserved():
    source = "for y in 2015 2016; do\ncat $y.txt | grep x\ndone"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert compiled.text.startswith("for y in 2015 2016; do")
    assert "done" in compiled.text


def test_assignments_are_preserved_and_used():
    source = "IN=data_a.txt\ncat $IN | grep x > out.txt"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert compiled.text.splitlines()[0] == "IN=data_a.txt"
    assert "data_a.txt" in compiled.text


def test_width_increases_node_count():
    source = "cat " + " ".join(f"c{i}.txt" for i in range(8)) + " | grep x | sort > out.txt"
    narrow = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    wide = Pash.compile(source, PashConfig.paper_default(8, fuse_stages=False))
    assert wide.node_count > narrow.node_count


def test_compile_time_recorded():
    compiled = Pash.compile("cat a.txt b.txt | sort > out.txt")
    assert compiled.stats.compile_time_seconds > 0.0


def test_no_parallelization_returns_original_script_text():
    source = "cat a.txt | awk '{print $1}'"
    compiled = Pash.compile(source, PashConfig.paper_default(4, fuse_stages=False))
    assert "mkfifo" not in compiled.text
    assert compiled.stats.regions_parallelized == 0
