"""EXP-JIT — measured wall-clock win of JIT orchestration on a loop-heavy script.

The script below is exactly the shape PaSh's AOT compiler surrenders on: a
``for`` loop whose body is a Table-2-class pipeline.  The AOT path compiles
nothing it can run (the whole script only executes through the sequential
interpreter), so the *baseline interpreter* is the honest comparison.  The
JIT driver executes the loop itself, compiles the body the first time it is
reached, serves iterations 2+ from the plan cache, and runs every compiled
plan on the parallel engine through the persistent worker pool.

``grep`` carries a fixed per-line latency (the stand-in for the paper's
complex-NFA grep, ~0.24 ms/line per Table 2), so the width-4 plan overlaps
the four workers' stage latency and the engine must beat the interpreter on
any machine — concurrency, not core count, is what's being bought.

A wall-clock gate, so it is not in tier-1: CI's ``bench-smoke`` job runs it.
The driver's counts on this loop (one compile, three cache hits, no
fallback, workers underneath) are
``tests/jit/test_driver.py::test_a_loop_on_the_pool_compiles_once_and_runs_on_workers``.
"""

import time

from repro.api import PashConfig
from repro.commands import standard_registry
from repro.jit import JitDriver
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

WIDTH = 4
ROUNDS = 4
LINES_PER_CHUNK = 300
SECONDS_PER_LINE = 4e-4  # ≈ Table 2's complex-NFA grep cost

#: A loop over ≥4 inputs whose body is a Table-2-class pipeline.  The body
#: references no loop-carried binding, so the plan cache must serve every
#: iteration after the first.
LOOP_SCRIPT = (
    "for round in 1 2 3 4; do\n"
    "  cat in0.txt in1.txt in2.txt in3.txt | grep the | sort | head -n 40\n"
    "done\n"
)


def _slow_grep_registry():
    registry = standard_registry().copy()
    real_grep = registry.lookup("grep").function

    def slow_grep(arguments, inputs):
        time.sleep(SECONDS_PER_LINE * sum(len(stream) for stream in inputs))
        return real_grep(arguments, inputs)

    registry.register_function(
        "grep", slow_grep, "grep with per-line latency (complex-NFA stand-in)"
    )
    return registry


def _files():
    return {
        f"in{index}.txt": text.text_lines(LINES_PER_CHUNK, seed=index)
        for index in range(4)
    }


def _environment():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(_files()), registry=_slow_grep_registry()
    )


def _run_baseline():
    environment = _environment()
    shell = ShellInterpreter(
        filesystem=environment.filesystem, registry=environment.registry
    )
    started = time.perf_counter()
    stdout = shell.run_script(LOOP_SCRIPT)
    return time.perf_counter() - started, stdout


def _run_jit():
    driver = JitDriver(
        config=PashConfig.paper_default(WIDTH, jit_inner_backend="parallel"),
        environment=_environment(),
    )
    started = time.perf_counter()
    result = driver.run(LOOP_SCRIPT)
    return time.perf_counter() - started, result


def test_bench_jit_loop_speedup():
    baseline_seconds, baseline_stdout = _run_baseline()
    jit_seconds, jit_result = _run_jit()
    speedup = baseline_seconds / jit_seconds
    report = jit_result.jit

    print("\nJIT — loop-heavy dynamic script, measured wall clock")
    print(f"{'mode':<22}{'seconds':<10}{'regions':<9}{'workers'}")
    print(f"{'interpreter':<22}{baseline_seconds:<10.3f}{'-':<9}{1}")
    print(
        f"{'jit (parallel)':<22}{jit_seconds:<10.3f}"
        f"{report.regions_seen:<9}{jit_result.metrics.worker_count}"
    )
    print(
        f"speedup: {speedup:.2f}x over {ROUNDS} iterations "
        f"({report.regions_compiled} compiled, {report.cache_hits} cache hits, "
        f"compile {report.compile_seconds * 1000:.1f} ms, "
        f"{jit_result.metrics.processes_reused} workers reused)"
    )

    assert jit_result.stdout == baseline_stdout
    # The acceptance bar: ≥ 1.5x lower wall clock than the baseline
    # interpreter on this multi-iteration script (latency-bound, so core
    # count does not gate it).
    assert speedup >= 1.5
