"""EXP-ENGINE — the parallel engine overlaps a latency-bound stage, by wall clock.

grep carries a fixed per-line cost (the stand-in for the paper's complex-NFA
grep, whose real cost is ~0.24 ms/line per Table 2).  A width-4 graph
overlaps the four workers' stage latency, so the engine must beat the
interpreter on any machine: concurrency, not core count, is what is bought.

A wall-clock gate, so it is not in tier-1: CI's ``bench-smoke`` job runs it
(``PYTHONPATH=src python -m pytest -q -s benchmarks/test_bench_engine_parallel.py``).
The CPU-bound sort is pash-bench's ``sort_cpu``, and the warm-pool batch's
counts are ``tests/engine/test_warm_batch.py``.
"""

import time

from repro import api
from repro.api import PashConfig
from repro.commands import standard_registry
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

WIDTH = 4
LINES_PER_CHUNK = 300
SECONDS_PER_LINE = 4e-4  # ≈ Table 2's complex-NFA grep cost


def _slow_grep_registry():
    """The standard registry with grep carrying a per-line latency."""
    registry = standard_registry().copy()
    real_grep = registry.lookup("grep").function

    def slow_grep(arguments, inputs):
        time.sleep(SECONDS_PER_LINE * sum(len(stream) for stream in inputs))
        return real_grep(arguments, inputs)

    registry.register_function(
        "grep", slow_grep, "grep with per-line latency (complex-NFA stand-in)"
    )
    return registry


def _environment():
    files = {
        f"in{index}.txt": text.text_lines(LINES_PER_CHUNK, seed=index) for index in range(WIDTH)
    }
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(files), registry=_slow_grep_registry()
    )


def test_bench_engine_latency_bound_speedup():
    chunks = " ".join(f"in{index}.txt" for index in range(WIDTH))
    script = f"cat {chunks} | grep the > out.txt"
    interpreter = api.run(script, backend="interpreter", environment=_environment())
    parallel = api.run(
        script, config=PashConfig.paper_default(WIDTH), backend="parallel", environment=_environment()
    )
    speedup = interpreter.elapsed_seconds / parallel.elapsed_seconds

    print(f"\nEXP-ENGINE — latency-bound grep at width {WIDTH}, measured wall clock")
    print(f"{'backend':<14}{'seconds':<10}{'workers':<9}{'bytes moved'}")
    print(f"{'interpreter':<14}{interpreter.elapsed_seconds:<10.3f}{1:<9}{'-'}")
    print(
        f"{'parallel':<14}{parallel.elapsed_seconds:<10.3f}"
        f"{parallel.metrics.worker_count:<9}{parallel.metrics.total_bytes_moved}"
    )
    print(f"speedup: {speedup:.2f}x")

    assert parallel.output_of("out.txt") == interpreter.output_of("out.txt")
    # Width-4 stage latency overlaps across worker processes regardless of
    # core count; the engine must clearly beat sequential evaluation.
    assert speedup > 1.3
