#!/usr/bin/env python3
"""Re-measure the planner's constants on this host and print the drift.

The region planner (``repro.transform.planner``) predicts both shapes of a
region from two committed tables: the rates of our Python kernels
(``repro.simulator.costs.PYTHON_KERNEL_MLINES_S`` and
``PYTHON_HELPER_MLINES_S``) and ``MachineModel.this_host()`` (per-node
second, per-run set-up, channel and collection rates).  This tool measures
the same quantities the way they were measured for the commit and prints
them beside the committed values.  One constant is *fitted*, not probed:
the per-node second stands for everything a pool node costs beyond its
kernel and its channel crossings, and the 4-line probe only sees the
dispatch and the report.  ``fit_per_node`` redoes the fit: it measures both
shapes of the break-even regions at 1k-100k on-disk lines and prints, for
every candidate value, the worst regret of the planner's picks.  It changes
nothing and always exits 0: CI runs it report-only, a builder reads it
before editing the tables.

Usage: ``PYTHONPATH=src:benchmarks python tools/calibrate_costs.py [--lines N] [--repeats N]``
(``benchmarks`` holds the ``paper`` package, whose text generator it reads).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.api import Pash, PashConfig
from repro.commands.registry import standard_registry
from repro.dfg.builder import translate_script
from repro.dfg.graph import DataflowGraph
from repro.engine.channels import Channel, decode_block, encode_lines
from repro.jit import JitDriver
from repro.runtime.aggregators import apply_aggregator
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.split import split_stream
from repro.runtime.streams import VirtualFileSystem
from repro.simulator.costs import (
    CALIBRATION_LINES,
    PYTHON_HELPER_MLINES_S,
    PYTHON_KERNEL_MLINES_S,
)
from repro.simulator.machine import MachineModel
from repro.transform.planner import plan_region
from paper.workloads.text import text_lines

#: Arguments each measured kernel runs with (a typical invocation).
KERNEL_ARGUMENTS: Dict[str, List[str]] = {
    "sort": [],
    "grep": ["-v", "lights"],
    "tr": ["A-Z", "a-z"],
    "cut": ["-d", " ", "-f", "1-4"],
    "uniq": ["-c"],
    "sed": ["s/the/THE/"],
    "wc": ["-l"],
    "head": ["-n", "10"],
    "tail": ["-n", "10"],
    "rev": [],
    "fold": ["-w", "40"],
    "awk": ["{print $1}"],
    "awk $2, $0": ["{print $2, $0}"],
    "cat": [],
    "tr -cs": ["-cs", "A-Za-z", "\\n"],
    "tr -s": ["-s", " "],
    "paste": [],
    "sort -n": ["-n"],
}


#: The regions and sizes the per-node second is fitted on — the sweep of
#: ``benchmarks/test_bench_planner_breakeven.py``: one blocking kernel, a
#: cheap fused chain, and a chain CPU-heavy enough for two workers to win.
FIT_REGIONS: Dict[str, str] = {
    "sort": "cat in.txt | sort > out.txt",
    "grep|cut": "cat in.txt | grep -v lights | cut -d ' ' -f 1-4 > out.txt",
    "wf": "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn > out.txt",
}
FIT_SIZES = (1_000, 10_000, 100_000)
#: Candidate per-node seconds: 0.25 ms to 2 ms.
FIT_CANDIDATES = [round(0.00025 + 0.00005 * step, 5) for step in range(36)]

#: One fit point: region, lines, its sequential graph, {width: measured seconds}.
FitRow = Tuple[str, int, DataflowGraph, Dict[int, float]]


def probe_lines(count: int) -> List[str]:
    """``count`` distinct text lines of ~55 bytes (fixed seed)."""
    rng = random.Random(20210426)
    pool = text_lines(2048, seed=20210426)
    return ["%s %06x" % (pool[rng.randrange(2048)], index) for index in range(count)]


def timed(work: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        work()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def measure_kernels(lines: List[str], repeats: int) -> Dict[str, float]:
    registry = standard_registry()
    ordered = sorted(line.split(" ", 1)[0] for line in lines)
    rates = {}
    for name, arguments in KERNEL_ARGUMENTS.items():
        # ``uniq -c`` counts a sorted column; ``paste`` joins two files line by line.
        streams = {"uniq": [ordered], "paste": [lines, lines]}.get(name, [lines])
        command = name.split()[0]
        seconds = timed(lambda: registry.run(command, arguments, streams), repeats)
        rates[name] = len(streams[0]) / seconds / 1e6
    return rates


def measure_helpers(lines: List[str], repeats: int) -> Dict[str, float]:
    half = len(lines) // 2
    runs = [sorted(lines[:half]), sorted(lines[half:])]
    counted = [["%7d %s" % (1, line) for line in run] for run in runs]
    cases = {
        "split": lambda: split_stream(lines, 2),
        "concat": lambda: apply_aggregator("concat", runs, []),
        "merge_sort": lambda: apply_aggregator("merge_sort", runs, []),
        "merge_uniq": lambda: apply_aggregator("merge_uniq", runs, []),
        "merge_uniq_count": lambda: apply_aggregator("merge_uniq", counted, ["-c"]),
    }
    return {name: len(lines) / timed(work, repeats) / 1e6 for name, work in cases.items()}


def measure_channel(lines: List[str], repeats: int) -> float:
    """Mlines/s through one engine channel: encode + pipe + decode."""

    def once() -> None:
        pipe = Channel()
        writer, reader = pipe.writer(), pipe.reader()

        def produce() -> None:
            writer.write_lines(lines)
            writer.close()

        producer = threading.Thread(target=produce)
        producer.start()
        reader.read_lines()
        producer.join()
        reader.close()

    return len(lines) / timed(once, repeats) / 1e6


def measure_pool(repeats: int) -> Dict[str, float]:
    """Per-node and per-run seconds of a warm pool, fitted over graph size.

    ``cat tiny.txt | sort | sort …`` at width 2 turns every ``sort`` into a
    split, two copies and a merge, so the graphs have the fan-out and fan-in
    of real plans while a 4-line input keeps the kernels out of the picture:
    the slope over dispatched nodes is one node's dispatch and report, the
    intercept the run's plan, pipes and collection.
    """
    files = {"tiny.txt": ["alpha", "beta", "gamma", "delta"]}
    points = {}
    with Pash(PashConfig.paper_default(2, backend="parallel")) as session:
        for stages in (1, 3, 5):
            compiled = session.compile("cat tiny.txt | " + " | ".join(["sort"] * stages))

            def once():
                return compiled.execute(
                    environment=ExecutionEnvironment(filesystem=VirtualFileSystem(files)),
                    pool=session._session_pool(),
                )

            dispatched = len(once().metrics.nodes)
            points[dispatched] = timed(once, repeats * 5)
    nodes = sorted(points)
    slope = (points[nodes[-1]] - points[nodes[0]]) / (nodes[-1] - nodes[0])
    return {
        "process_spawn_seconds": slope,
        "setup_seconds": max(points[nodes[0]] - slope * nodes[0], 0.0),
    }


def measure_collect(lines: List[str], repeats: int) -> float:
    """Lines per second of the driver's one decode of a collected output."""
    block = encode_lines(lines)
    return len(lines) / timed(lambda: decode_block(block), repeats)


def measure_shapes(repeats: int) -> List[FitRow]:
    """Both shapes of every fit region at every size: in-process, and width 2 on the pool."""
    shapes = {
        1: PashConfig.paper_default(1),
        2: PashConfig.paper_default(2, jit_inner_backend="parallel"),
    }

    def seconds(script: str, config: PashConfig) -> float:
        filesystem = VirtualFileSystem(allow_real_files=True)
        driver = JitDriver(config=config, environment=ExecutionEnvironment(filesystem=filesystem))
        started = time.perf_counter()
        driver.run(script)
        return time.perf_counter() - started

    rows: List[FitRow] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for size in FIT_SIZES:
                with open("in.txt", "w") as handle:
                    handle.writelines(line + "\n" for line in probe_lines(size))
                for name, script in FIT_REGIONS.items():
                    seconds(script, shapes[2])  # grow the pool, warm the page cache
                    best = {
                        width: min(seconds(script, config) for _ in range(repeats))
                        for width, config in shapes.items()
                    }
                    rows.append((name, size, translate_script(script).regions[0].dfg, best))
        finally:
            os.chdir(home)
    return rows


def fit_per_node(rows: List[FitRow], host: MachineModel) -> Dict[float, float]:
    """Candidate per-node second -> the worst regret of the planner's picks under it.

    Regret is the measured seconds of the shape the planner picks over the
    measured seconds of the better shape; the planner is a pure function of
    the machine model, so no candidate needs a run of its own.
    """
    config = PashConfig.paper_default(2)
    worst = {}
    for candidate in FIT_CANDIDATES:
        machine = dataclasses.replace(host, process_spawn_seconds=candidate)
        worst[candidate] = max(
            best[plan_region(graph, {"in.txt": size}, config, machine=machine).width]
            / min(best.values())
            for _, size, graph, best in rows
        )
    return worst


def report_fit(rows: List[FitRow], host: MachineModel) -> None:
    print("per-node second, fitted (MachineModel.this_host().process_spawn_seconds)")
    if host.cores < 2:
        print("  one usable core: the planner has no candidate width, nothing to fit")
        return
    for name, size, graph, best in rows:
        plan = plan_region(graph, {"in.txt": size}, PashConfig.paper_default(2), machine=host)
        print(
            "  %-9s %7d lines  in-process %8.4f s (predicted %8.4f)  pool %8.4f s (predicted %8.4f)"
            "  pick %d  regret %.2f"
            % (
                name, size, best[1], plan.predicted_sequential_seconds, best[2],
                plan.predicted_parallel_seconds, plan.width, best[plan.width] / min(best.values()),
            )
        )
    worst = fit_per_node(rows, host)
    floor = min(worst.values())
    flat = [candidate for candidate, regret in worst.items() if regret <= floor + 0.005]
    committed = min(worst, key=lambda candidate: abs(candidate - host.process_spawn_seconds))
    print(
        "  lowest worst-case regret %.2f for %.2f..%.2f ms; committed %.2f ms has %.2f"
        % (floor, flat[0] * 1e3, flat[-1] * 1e3, host.process_spawn_seconds * 1e3, worst[committed])
    )


def report(title: str, measured: Dict[str, float], committed: Dict[str, float], unit: str) -> None:
    print(title)
    for name in sorted(set(measured) | set(committed)):
        new, old = measured.get(name), committed.get(name)
        if new is None or old is None:
            shown = tuple("%.4g" % value if value is not None else "-" for value in (new, old))
            print("  %-22s measured %10s  committed %10s  (in one table only)" % ((name,) + shown))
            continue
        print(
            "  %-22s measured %10.4g  committed %10.4g %s  (%+.0f%%)"
            % (name, new, old, unit, (new - old) / old * 100.0)
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=CALIBRATION_LINES)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--no-fit", action="store_true", help="skip the per-node fit (~30 s)")
    arguments = parser.parse_args()

    lines = probe_lines(arguments.lines)
    host = MachineModel.this_host()
    print("calibrating over %d lines, %d usable cores" % (len(lines), host.cores))
    report(
        "kernel rates (repro.simulator.costs.PYTHON_KERNEL_MLINES_S)",
        measure_kernels(lines, arguments.repeats),
        PYTHON_KERNEL_MLINES_S,
        "Mlines/s",
    )
    report(
        "helper rates (repro.simulator.costs.PYTHON_HELPER_MLINES_S)",
        measure_helpers(lines, arguments.repeats),
        PYTHON_HELPER_MLINES_S,
        "Mlines/s",
    )
    machine = measure_pool(arguments.repeats)
    machine["channel_lines_per_second"] = measure_channel(lines, arguments.repeats) * 1e6
    machine["collect_lines_per_second"] = measure_collect(lines, arguments.repeats)
    report(
        "machine (repro.simulator.machine.MachineModel.this_host; the probe's "
        "process_spawn_seconds is a node's dispatch + report, the floor of the fitted value)",
        machine,
        {name: getattr(host, name) for name in machine},
        "",
    )
    if not arguments.no_fit:
        report_fit(measure_shapes(min(arguments.repeats, 3)), host)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
