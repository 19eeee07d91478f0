"""Tests for the multiprocess DFG scheduler."""

import os
import shutil

import pytest

from repro.dfg.builder import DFGBuilder
from repro.engine.scheduler import ParallelScheduler, execute_graph_parallel
from repro.runtime.executor import (
    DFGExecutor,
    ExecutionEnvironment,
    ExecutionError,
)
from repro.runtime.streams import VirtualFileSystem
from repro.api import PashConfig, optimize


def build(script, width=None):
    graph = DFGBuilder().build_from_script(script)
    if width:
        optimize(graph, PashConfig.paper_default(width, fuse_stages=False))
    return graph


def environment(files=None, stdin=None):
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in (files or {}).items()}),
        stdin=list(stdin or []),
    )


FILES = {
    "a.txt": ["banana", "apple foo", "cherry FOO"],
    "b.txt": ["date foo", "elderberry", "fig foo"],
}


def test_simple_pipeline_matches_interpreter():
    script = "cat a.txt b.txt | grep foo | sort > out.txt"
    expected = DFGExecutor(environment(FILES)).execute(build(script))
    result, metrics = execute_graph_parallel(build(script), environment(FILES))
    assert result.files["out.txt"] == expected.files["out.txt"]
    assert metrics.elapsed_seconds > 0


def test_optimized_graph_matches_interpreter():
    script = "cat a.txt b.txt | grep foo | sort > out.txt"
    expected = DFGExecutor(environment(FILES)).execute(build(script, width=2))
    result, _ = execute_graph_parallel(build(script, width=2), environment(FILES))
    assert result.files["out.txt"] == expected.files["out.txt"]


def test_stdout_graph():
    script = "cat a.txt | grep -v foo"
    result, _ = execute_graph_parallel(build(script), environment(FILES))
    assert result.stdout == ["banana", "cherry FOO"]


def test_stdin_graph():
    graph = build("grep foo")
    result, _ = execute_graph_parallel(graph, environment(stdin=["one foo", "two", "three foo"]))
    assert result.stdout == ["one foo", "three foo"]


def test_multiple_worker_processes_observed():
    script = "cat a.txt b.txt | grep foo | sort > out.txt"
    _, metrics = execute_graph_parallel(build(script, width=2), environment(FILES))
    assert metrics.worker_count >= 2
    assert metrics.worker_count == len({node.pid for node in metrics.nodes})
    assert os.getpid() not in {node.pid for node in metrics.nodes}


def test_per_node_metrics_populated():
    script = "cat a.txt b.txt | grep foo > out.txt"
    graph = build(script)
    result, metrics = execute_graph_parallel(graph, environment(FILES))
    assert len(metrics.nodes) == len(graph.nodes)
    by_label = {node.label: node for node in metrics.nodes}
    grep_node = by_label["grep foo"]
    assert grep_node.bytes_in > 0
    assert grep_node.lines_in == 6
    assert grep_node.lines_out == len(result.files["out.txt"]) == 3
    assert grep_node.wall_seconds >= 0
    assert metrics.total_bytes_moved > 0
    assert 0 <= metrics.worker_utilization <= 1


def test_missing_input_file_raises():
    with pytest.raises(ExecutionError):
        execute_graph_parallel(build("cat missing.txt | sort"), environment())


def _graph_with_failing_node(downstream=False):
    """A graph containing a command the registry does not implement."""
    from repro.dfg.edges import EdgeKind
    from repro.dfg.graph import DataflowGraph
    from repro.dfg.nodes import CommandNode

    graph = DataflowGraph()
    failing = graph.add_node(CommandNode(name="unknowncommand123"))
    source = graph.add_edge(kind=EdgeKind.FILE, name="a.txt")
    graph.attach_input(failing, source)
    if downstream:
        consumer = graph.add_node(CommandNode(name="sort"))
        graph.connect(failing, consumer)
        sink = graph.add_edge(kind=EdgeKind.FILE, name="out.txt")
        graph.attach_output(consumer, sink)
    else:
        sink = graph.add_edge(kind=EdgeKind.FILE, name="out.txt")
        graph.attach_output(failing, sink)
    return graph


def test_worker_failure_propagates_with_label():
    with pytest.raises(ExecutionError) as excinfo:
        execute_graph_parallel(_graph_with_failing_node(), environment(FILES))
    assert "unknowncommand123" in str(excinfo.value)


def test_failure_does_not_wedge_downstream():
    """A dying node must deliver EOF, not a hang, to its consumers."""
    scheduler = ParallelScheduler(environment(FILES), PashConfig(report_timeout_seconds=30))
    with pytest.raises(ExecutionError):
        scheduler.execute(_graph_with_failing_node(downstream=True))


def test_killed_worker_fails_fast_with_exit_code():
    """A SIGKILLed worker never reports; the run must not sit out the timeout.

    The kill is injected through the resilience tier's fault plane
    (``pool:worker-exec`` in kill mode) rather than a custom self-killing
    command — the same rig the chaos suite uses.
    """
    import time as time_module

    from repro.api import ResilienceConfig
    from repro.resilience.fault import POOL_WORKER_EXEC, FaultSpec

    faults = (FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0),)
    scheduler = ParallelScheduler(
        environment(FILES),
        PashConfig(report_timeout_seconds=60, resilience=ResilienceConfig(faults=faults)),
    )
    started = time_module.perf_counter()
    with pytest.raises(ExecutionError) as excinfo:
        scheduler.execute(build("cat a.txt b.txt | grep foo | sort > out.txt"))
    assert time_module.perf_counter() - started < 30
    assert "died without reporting" in str(excinfo.value)


def test_output_arity_mismatch_is_a_loud_error():
    """A node wired to more output edges than it produces must fail, not
    silently feed EOF downstream (parity with the interpreter's check)."""
    from repro.dfg.edges import EdgeKind
    from repro.dfg.graph import DataflowGraph
    from repro.dfg.nodes import RelayNode

    graph = DataflowGraph()
    relay_node = graph.add_node(RelayNode())
    source = graph.add_edge(kind=EdgeKind.FILE, name="a.txt")
    graph.attach_input(relay_node, source)
    for name in ("o1.txt", "o2.txt"):
        sink = graph.add_edge(kind=EdgeKind.FILE, name=name)
        graph.attach_output(relay_node, sink)

    with pytest.raises(ExecutionError) as excinfo:
        execute_graph_parallel(graph, environment(FILES))
    assert "2 output edges" in str(excinfo.value)


def test_file_append_output():
    env = environment({"a.txt": ["x", "y"], "log.txt": ["old"]})
    result, _ = execute_graph_parallel(build("cat a.txt >> log.txt"), env)
    assert result.files["log.txt"] == ["old", "x", "y"]
    assert env.filesystem.read("log.txt") == ["old", "x", "y"]


def test_multi_statement_environment_chaining():
    env = environment(FILES)
    execute_graph_parallel(build("cat a.txt b.txt | sort > sorted.txt"), env)
    result, _ = execute_graph_parallel(build("cat sorted.txt | head -n 2 > out.txt"), env)
    assert result.files["out.txt"] == ["apple foo", "banana"]


def test_large_stream_through_pipes():
    lines = [f"payload line {index} foo" for index in range(20_000)]
    env = environment({"big.txt": lines})
    expected = DFGExecutor(env.copy()).execute(build("cat big.txt | grep foo | wc -l"))
    result, metrics = execute_graph_parallel(
        build("cat big.txt | grep foo | wc -l", width=4), env
    )
    assert result.stdout == expected.stdout
    assert metrics.total_bytes_moved > 100_000


def test_empty_graph():
    from repro.dfg.graph import DataflowGraph

    result, metrics = execute_graph_parallel(DataflowGraph(), environment())
    assert result.stdout == []
    assert metrics.nodes == []


@pytest.mark.skipif(shutil.which("grep") is None, reason="requires host grep")
def test_host_command_mode():
    script = "cat a.txt b.txt | grep foo | sort > out.txt"
    expected = DFGExecutor(environment(FILES)).execute(build(script))
    result, metrics = execute_graph_parallel(
        build(script), environment(FILES), PashConfig(use_host_commands=True)
    )
    assert result.files["out.txt"] == expected.files["out.txt"]
    assert any(node.host_command for node in metrics.nodes)
