"""Ablation — aggregation-tree fan-in (binary tree vs flat n-way merge).

DESIGN.md calls out the shape of the pure-command aggregation stage as a
design choice; this benchmark quantifies it on the Sort one-liner.
"""

from conftest import print_header

from repro.api import PashConfig, SplitMode
from repro.evaluation.harness import simulate_benchmark
from repro.workloads.oneliners import get_one_liner


def _config(width, fan_in):
    return PashConfig(width=width, split=SplitMode.GENERAL, aggregation_fan_in=fan_in)


def test_bench_ablation_aggregation_fan_in(benchmark):
    one_liner = get_one_liner("sort")
    width = 16

    def run():
        return {
            fan_in: simulate_benchmark(one_liner, width, _config(width, fan_in))
            for fan_in in (2, 4, 0)
        }

    runs = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Ablation — aggregation tree fan-in (Sort, width 16)")
    print(f"{'fan-in':<10}{'nodes':<10}{'speedup'}")
    for fan_in, run_result in runs.items():
        label = "flat" if fan_in == 0 else str(fan_in)
        print(f"{label:<10}{run_result.node_count:<10}{round(run_result.speedup, 2)}")

    binary = runs[2]
    flat = runs[0]
    # The binary tree uses more processes than the flat merge but keeps the
    # speedup in the same range (merging is pipelined either way).
    assert binary.node_count > flat.node_count
    assert binary.speedup > 1.0 and flat.speedup > 1.0
    assert abs(binary.speedup - flat.speedup) / flat.speedup < 0.6
