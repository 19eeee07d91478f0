#!/usr/bin/env python3
"""Re-measure the planner's constants on this host and print the drift.

The region planner (``repro.transform.planner``) predicts both shapes of a
region from two committed tables: the rates of our Python kernels
(``repro.simulator.costs.PYTHON_KERNEL_MLINES_S`` and
``PYTHON_HELPER_MLINES_S``) and ``MachineModel.this_host()`` (per-node pool
dispatch, per-run set-up, channel rate).  This tool measures the same
quantities the way they were measured for the commit and prints them beside
the committed values.  It changes nothing and always exits 0: CI runs it
report-only, a builder reads it before editing the tables.

Usage: ``PYTHONPATH=src python tools/calibrate_costs.py [--lines N] [--repeats N]``
"""

from __future__ import annotations

import argparse
import random
import statistics
import threading
import time
from typing import Callable, Dict, List

from repro.api import Pash, PashConfig
from repro.commands.registry import standard_registry
from repro.engine.channels import Channel
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
from repro.workloads.text import text_lines

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
    "cat": [],
    "tr -cs": ["-cs", "A-Za-z", "\\n"],
}


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
        stream = ordered if name == "uniq" else lines
        command = name.split()[0]
        seconds = timed(lambda: registry.run(command, arguments, [stream]), repeats)
        rates[name] = len(stream) / seconds / 1e6
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


def report(title: str, measured: Dict[str, float], committed: Dict[str, float], unit: str) -> None:
    print(title)
    for name in sorted(set(measured) | set(committed)):
        new, old = measured.get(name), committed.get(name)
        if new is None or old is None:
            print("  %-22s measured %s committed %s  (in one table only)" % (name, new, old))
            continue
        print(
            "  %-22s measured %10.4g  committed %10.4g %s  (%+.0f%%)"
            % (name, new, old, unit, (new - old) / old * 100.0)
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=CALIBRATION_LINES)
    parser.add_argument("--repeats", type=int, default=5)
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
    report(
        "machine (repro.simulator.machine.MachineModel.this_host)",
        machine,
        {name: getattr(host, name) for name in machine},
        "",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
