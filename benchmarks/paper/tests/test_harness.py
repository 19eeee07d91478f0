"""Tests for the shared evaluation harness."""

import pytest

from repro.api import PashConfig
from repro.simulator.machine import MachineModel
from paper.harness import (
    check_benchmark_correctness,
    script_graphs,
    simulate_benchmark,
    simulate_script,
    timing_library,
)
from paper.workloads.oneliners import ONE_LINERS, get_one_liner


def test_timing_library_translates_awk():
    graphs = script_graphs(
        "cat a.txt | awk '{print $1}' | sort", PashConfig.paper_default(4, fuse_stages=False)
    )
    assert len(graphs.sequential) == 1
    assert graphs.rejected_statements == 1
    # The rejected statement is carried over unoptimized.
    assert len(graphs.parallel) == 1
    assert len(graphs.parallel[0].nodes) == len(graphs.sequential[0].nodes)


def test_script_graphs_optimizes_accepted_statements():
    graphs = script_graphs(
        "cat a.txt b.txt | grep x > out.txt", PashConfig.paper_default(2, fuse_stages=False)
    )
    assert graphs.rejected_statements == 0
    assert len(graphs.parallel[0].nodes) > len(graphs.sequential[0].nodes)
    assert graphs.node_count == len(graphs.parallel[0].nodes)


def test_simulate_script_returns_consistent_results():
    sequential, parallel, graphs = simulate_script(
        "cat in0.txt in1.txt | grep light | sort > out.txt",
        {"in0.txt": 2_000_000, "in1.txt": 2_000_000},
        PashConfig.paper_default(2, fuse_stages=False),
        machine=MachineModel.paper_testbed(),
    )
    assert sequential.total_seconds > 0
    assert parallel.total_seconds > 0
    assert parallel.total_seconds < sequential.total_seconds
    assert graphs.node_count > 0


def test_simulate_benchmark_run_fields():
    run = simulate_benchmark(get_one_liner("sort"), width=4)
    assert run.name == "sort" and run.width == 4
    assert run.node_count > 0
    assert run.speedup > 1.0
    assert run.compile_time_seconds >= 0.0


def test_simulated_speedup_increases_with_width():
    benchmark = get_one_liner("grep")
    narrow = simulate_benchmark(benchmark, 2).speedup
    wide = simulate_benchmark(benchmark, 16).speedup
    assert wide > narrow > 1.0


@pytest.mark.parametrize("one_liner", ONE_LINERS, ids=lambda b: b.name)
def test_every_one_liner_is_output_identical_under_parallelization(one_liner):
    report = check_benchmark_correctness(one_liner, width=4, lines=400)
    assert report.identical, f"{one_liner.name}: {report.differing_lines} differing lines"


def test_correctness_report_flags_differences():
    report = check_benchmark_correctness(get_one_liner("wf"), width=3, lines=300)
    assert report.differing_lines == 0
    assert report.sequential_output == report.parallel_output


def test_correctness_check_on_parallel_engine_backend():
    report = check_benchmark_correctness(
        get_one_liner("grep"), width=2, lines=200, backend="parallel"
    )
    assert report.identical


def test_timing_library_is_a_copy():
    library = timing_library()
    from repro.annotations.library import standard_library

    assert standard_library().classify("awk", []) .value == "side-effectful"
    assert library.classify("awk", []).value == "non-parallelizable"
