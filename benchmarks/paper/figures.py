"""Figure generators: Fig. 7 (one-liner speedups) and Fig. 8 (Unix50)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.api import PashConfig
from repro.simulator.machine import MachineModel
from paper.harness import simulate_benchmark, simulate_script
from paper.workloads.base import BenchmarkScript
from paper.workloads.oneliners import ONE_LINERS
from paper.workloads.unix50 import UNIX50_PIPELINES, Unix50Pipeline

#: Parallelism levels plotted in Fig. 7.
FIG7_WIDTHS = (2, 4, 8, 16, 32, 64)


def figure7_series(
    benchmark: BenchmarkScript,
    widths: Iterable[int] = FIG7_WIDTHS,
    configurations: Optional[Dict[str, object]] = None,
    machine: Optional[MachineModel] = None,
) -> Dict[str, Dict[int, float]]:
    """Speedup series for one benchmark: {configuration: {width: speedup}}."""
    machine = machine or MachineModel.paper_testbed()
    series: Dict[str, Dict[int, float]] = {}
    for width in widths:
        named_configs = configurations or PashConfig.named_configurations(width)
        for name, config in named_configs.items():
            if not isinstance(config, PashConfig):
                continue
            run = simulate_benchmark(
                benchmark, width, config, configuration_name=name, machine=machine
            )
            series.setdefault(name, {})[width] = round(run.speedup, 2)
    return series


def best_configuration_speedups(
    benchmarks: Optional[List[BenchmarkScript]] = None,
    widths: Iterable[int] = FIG7_WIDTHS,
    machine: Optional[MachineModel] = None,
) -> Dict[int, float]:
    """Average best-configuration speedup per width (paper: 1.97...13.47)."""
    benchmarks = benchmarks or ONE_LINERS
    totals: Dict[int, List[float]] = {width: [] for width in widths}
    for benchmark in benchmarks:
        series = figure7_series(benchmark, widths, machine=machine)
        for width in widths:
            best = max(values.get(width, 0.0) for values in series.values())
            totals[width].append(best)
    return {
        width: round(sum(values) / len(values), 2) if values else 0.0
        for width, values in totals.items()
    }


# ---------------------------------------------------------------------------
# Figure 8 — Unix50
# ---------------------------------------------------------------------------


def figure8_point(
    pipeline: Unix50Pipeline,
    width: int = 16,
    machine: Optional[MachineModel] = None,
) -> Dict[str, float]:
    """Speedup and sequential time for one Unix50 pipeline at one width."""
    machine = machine or MachineModel.paper_testbed()
    script = pipeline.script_for_width(width)
    input_lines = pipeline.input_line_counts(width)

    sequential, parallel, _ = simulate_script(
        script, input_lines, PashConfig.paper_default(width), machine=machine
    )
    speedup = sequential.total_seconds / parallel.total_seconds if parallel.total_seconds else 0.0
    return {
        "index": pipeline.index,
        "description": pipeline.description,
        "expected_group": pipeline.expected_group,
        "sequential_seconds": round(sequential.total_seconds, 3),
        "parallel_seconds": round(parallel.total_seconds, 3),
        "speedup": round(speedup, 2),
    }


def figure8_series(
    width: int = 16,
    pipelines: Optional[List[Unix50Pipeline]] = None,
    machine: Optional[MachineModel] = None,
) -> List[Dict[str, float]]:
    """Fig. 8: speedup of every Unix50 pipeline at the given width."""
    return [
        figure8_point(pipeline, width, machine)
        for pipeline in pipelines or UNIX50_PIPELINES
    ]


def figure8_summary(points: Optional[List[Dict[str, float]]] = None) -> Dict[str, float]:
    """Average / median / weighted-average speedups (paper: 5.49 / 6.07 / 5.75)."""
    points = points or figure8_series()
    speedups = [point["speedup"] for point in points]
    speedups_sorted = sorted(speedups)
    middle = len(speedups_sorted) // 2
    if len(speedups_sorted) % 2:
        median = speedups_sorted[middle]
    else:
        median = (speedups_sorted[middle - 1] + speedups_sorted[middle]) / 2
    total_time = sum(point["sequential_seconds"] for point in points)
    weighted = (
        sum(point["speedup"] * point["sequential_seconds"] for point in points) / total_time
        if total_time
        else 0.0
    )
    return {
        "average": round(sum(speedups) / len(speedups), 2),
        "median": round(median, 2),
        "weighted_average": round(weighted, 2),
    }
