"""EXP-PLANNER — the region planner's pick against both measured shapes.

``jit_inner_backend="auto"`` sizes every region from its live input: the
sequential graph on the in-process executor, or the width-2 shape on the
worker pool.  This bench sweeps the input from 1k to 1M lines over three
regions that stress different terms of the cost tables — ``sort`` (one
blocking kernel; the pool pays a split, a merge and four channel crossings),
``grep | cut`` (a cheap fused chain; the pool pays the crossings for nothing)
and ``wf`` (the character-walking ``tr -cs`` makes it CPU-heavy enough for
two workers to win once the input is large) — and at every size measures
both shapes on on-disk files, asks the planner, and records predicted and
measured seconds of both plus the pick.

It fails when the pick is more than 1.25x slower than the better measured
shape at any size (each shape's best of 7 samples up to 10k lines, of 2 at
100k): near the break-even both shapes are within that band, so only a
prediction that is wrong *where it matters* fails.

The 1M-line column costs about a minute (``wf`` alone runs 10-15 s per
shape there), so a plain ``pytest`` run stops at 100k lines;
``PASH_BENCH_FULL=1`` — which the CI ``bench-smoke`` job sets — sweeps to 1M.

Run with ``--bench-json`` to persist the measurements (see conftest).
"""

import os
import random
import time

from conftest import print_header

from repro.api import PashConfig
from repro.jit import JitDriver
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from repro.workloads import text

WIDTH = 2
SIZES = (1_000, 10_000, 100_000, 1_000_000)
REGRET_BOUND = 1.25
FULL = os.environ.get("PASH_BENCH_FULL") == "1"

SCRIPTS = {
    "sort": "cat in.txt | sort > out.txt",
    "grep|cut": "cat in.txt | grep -v lights | cut -d ' ' -f 1-4 > out.txt",
    "wf": "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn > out.txt",
}


def _write_input(lines: int) -> None:
    """``lines`` distinct ~55-byte text lines in ``in.txt`` (fixed seed)."""
    rng = random.Random(20210426)
    pool = text.text_lines(2048, seed=20210426)
    with open("in.txt", "w") as handle:
        for index in range(lines):
            handle.write("%s %06x\n" % (pool[rng.randrange(2048)], index))


def _run(script: str, config: PashConfig):
    """One run over the on-disk input; ``(seconds, out.txt, report)``."""
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
    driver = JitDriver(config=config, environment=environment)
    started = time.perf_counter()
    result = driver.run(script)
    return time.perf_counter() - started, result.output_of("out.txt"), result.jit


def test_bench_planner_breakeven(bench_record, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # Width 1 leaves the planner no candidate: the sequential graph, in-process.
    in_process = PashConfig.paper_default(1)
    pooled = PashConfig.paper_default(WIDTH, jit_inner_backend="parallel")
    planned = PashConfig.paper_default(WIDTH)
    _write_input(SIZES[0])
    _run(SCRIPTS["wf"], pooled)  # grow the shared pool before timing

    print_header("EXP-PLANNER — predicted and measured seconds of both shapes, and the pick")
    print(
        f"{'region':<10}{'lines':>9}{'seq pred':>10}{'seq meas':>10}"
        f"{'par pred':>10}{'par meas':>10}{'pick':>6}{'regret':>8}"
    )
    rows = []
    for name, script in SCRIPTS.items():
        for lines in SIZES:
            if lines > 100_000 and not FULL:
                continue
            _write_input(lines)
            # The best of 7 where a sample costs milliseconds: at 10k lines
            # one run swings 0.007-0.014 s on a loaded box, and a best of 2
            # let that noise alone cross the bound.
            repeats = 7 if lines <= 10_000 else 2 if lines <= 100_000 else 1
            measured = {1: [], WIDTH: []}
            outputs = []
            for _ in range(repeats):
                for width, config in ((1, in_process), (WIDTH, pooled)):
                    seconds, output, _ = _run(script, config)
                    measured[width].append(seconds)
                    outputs.append(output)
            seconds, output, report = _run(script, planned)
            (outcome,) = report.outcomes
            measured[outcome.width].append(seconds)
            outputs.append(output)
            assert all(other == outputs[0] for other in outputs), f"{name} at {lines}: outputs differ"

            best = {width: min(samples) for width, samples in measured.items()}
            regret = best[outcome.width] / min(best.values())
            rows.append(
                {
                    "region": name,
                    "lines": lines,
                    "predicted_sequential_seconds": round(outcome.predicted_sequential_seconds, 5),
                    "predicted_parallel_seconds": round(outcome.predicted_parallel_seconds, 5),
                    "measured_sequential_seconds": round(best[1], 5),
                    "measured_parallel_seconds": round(best[WIDTH], 5),
                    "pick": outcome.width,
                    "regret": round(regret, 3),
                }
            )
            print(
                f"{name:<10}{lines:>9}{outcome.predicted_sequential_seconds:>10.4f}{best[1]:>10.4f}"
                f"{outcome.predicted_parallel_seconds:>10.4f}{best[WIDTH]:>10.4f}"
                f"{outcome.width:>6}{regret:>8.2f}"
            )

    bench_record(
        "planner_breakeven",
        width=WIDTH,
        usable_cores=len(os.sched_getaffinity(0)),
        full_sweep=FULL,
        regret_bound=REGRET_BOUND,
        worst_regret=max(row["regret"] for row in rows),
        rows=rows,
    )
    for row in rows:
        assert row["regret"] <= REGRET_BOUND, (
            f"{row['region']} at {row['lines']} lines: the planner picked width {row['pick']}, "
            f"{row['regret']}x slower than the better measured shape ({row})"
        )
