"""Tests for the NOAA and Wikipedia use-case workloads."""

from repro.dfg.builder import translate_script
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import noaa, wikipedia


# ---------------------------------------------------------------------------
# NOAA
# ---------------------------------------------------------------------------


def test_index_lines_reference_gz_archives():
    lines = noaa.index_lines(2015, stations=10)
    assert any(line.endswith(".gz") for line in lines)
    assert any(not line.endswith(".gz") for line in lines)
    # ls-style listing: the archive name is the 9th whitespace field.
    assert all(len(line.split()) == 9 for line in lines)


def test_yearly_dataset_contains_index_and_archives():
    dataset = noaa.yearly_dataset(years=[2015], stations=5)
    assert "noaa/2015.index" in dataset
    archives = [name for name in dataset if name.startswith("noaa/2015/")]
    assert len(archives) == 5


def test_per_year_pipeline_translates_to_a_single_region():
    result = translate_script(noaa.per_year_pipeline(2015, 5))
    assert len(result.regions) == 1
    assert not result.rejected


def test_full_script_covers_all_years():
    script = noaa.full_script([2015, 2016])
    assert script.count("Maximum temperature") == 2


def test_pipeline_produces_plausible_maximum():
    dataset = noaa.yearly_dataset(years=[2016], stations=3)
    shell = ShellInterpreter(filesystem=VirtualFileSystem(dataset))
    out = shell.run_script(noaa.per_year_pipeline(2016, 3))
    assert len(out) == 1
    value = out[0].rsplit(" ", 1)[-1]
    assert value.isdigit()
    assert "999" not in value


# ---------------------------------------------------------------------------
# Wikipedia
# ---------------------------------------------------------------------------


def test_url_list_shape():
    urls = wikipedia.url_list(5)
    assert len(urls) == 5
    assert all(url.startswith("https://") for url in urls)


def test_indexing_script_translates():
    result = translate_script(wikipedia.indexing_script())
    assert len(result.regions) == 1
    assert not result.rejected


def test_indexing_script_runs_sequentially():
    dataset = wikipedia.dataset(pages=4)
    shell = ShellInterpreter(filesystem=VirtualFileSystem(dataset))
    shell.run_script(wikipedia.indexing_script())
    index = shell.state.filesystem.read("index.txt")
    assert index
    counts = [int(line.split()[0]) for line in index]
    assert counts == sorted(counts, reverse=True)
