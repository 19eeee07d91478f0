"""Tests for the in-process DFG executor."""

import pytest

from repro.api import PashConfig, optimize
from repro.dfg.builder import DFGBuilder
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem


def run(script, files, stdin=None, config=None):
    graph = DFGBuilder().build_from_script(script)
    if config is not None:
        optimize(graph, config)
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem(files), stdin=list(stdin or [])
    )
    return DFGExecutor(environment).execute(graph), environment


def test_simple_pipeline_stdout():
    result, _ = run("cat a.txt | grep x | sort", {"a.txt": ["xb", "xa", "c"]})
    assert result.stdout == ["xa", "xb"]


def test_pipeline_writing_a_file():
    result, environment = run("cat a.txt | sort > out.txt", {"a.txt": ["b", "a"]})
    assert result.stdout == []
    assert environment.filesystem.read("out.txt") == ["a", "b"]
    assert result.output_of("out.txt") == ["a", "b"]


def test_append_redirection():
    files = {"a.txt": ["x"], "out.txt": ["existing"]}
    _, environment = run("cat a.txt | sort >> out.txt", files)
    assert environment.filesystem.read("out.txt") == ["existing", "x"]


def test_stdin_edge_reads_environment_stdin():
    result, _ = run("grep foo | wc -l", {}, stdin=["foo", "bar", "food"])
    assert result.stdout == ["2"]


def test_multiple_file_inputs_in_order():
    result, _ = run("cat a.txt b.txt | head -n3", {"a.txt": ["1", "2"], "b.txt": ["3", "4"]})
    assert result.stdout == ["1", "2", "3"]


def test_comm_with_two_file_inputs():
    files = {"a.txt": ["a", "b", "c"], "b.txt": ["b", "d"]}
    result, _ = run("comm -12 a.txt b.txt", files)
    assert result.stdout == ["b"]


def test_missing_input_file_raises():
    with pytest.raises(ExecutionError):
        run("cat missing.txt | sort", {})


def test_optimized_graph_produces_identical_output():
    files = {f"in{i}.txt": [f"line{j}-{i}" for j in range(50)] for i in range(4)}
    script = "cat in0.txt in1.txt in2.txt in3.txt | grep line | sort | uniq -c | head -n 7"
    baseline, _ = run(script, files)
    parallel, _ = run(script, files, config=PashConfig.paper_default(4, fuse_stages=False))
    assert baseline.stdout == parallel.stdout


def test_optimized_graph_with_split_produces_identical_output():
    files = {"big.txt": [f"{i % 7} payload" for i in range(200)]}
    script = "cat big.txt | grep payload | sort | uniq -c | sort -rn"
    baseline, _ = run(script, files)
    parallel, _ = run(script, files, config=PashConfig.paper_default(8, fuse_stages=False))
    assert baseline.stdout == parallel.stdout


def test_edge_values_are_recorded():
    result, _ = run("cat a.txt | wc -l", {"a.txt": ["1", "2", "3"]})
    assert any(value == ["3"] for value in result.edge_values.values())


def test_environment_is_reusable_across_graphs():
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem({"a.txt": ["b", "a"]}))
    first = DFGBuilder().build_from_script("cat a.txt | sort > sorted.txt")
    DFGExecutor(environment).execute(first)
    second = DFGBuilder().build_from_script("cat sorted.txt | head -n1")
    result = DFGExecutor(environment).execute(second)
    assert result.stdout == ["a"]
