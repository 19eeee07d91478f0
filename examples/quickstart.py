#!/usr/bin/env python3
"""Quickstart: compile a classic one-liner and check it stays correct.

Run with::

    PYTHONPATH=src:benchmarks python examples/quickstart.py

The example follows PaSh's flow end to end:

1. take a sequential shell pipeline,
2. compile it into its data-parallel equivalent (the script you would hand
   to ``sh`` on a real machine),
3. execute both the sequential and the parallel dataflow graphs in-process
   over a synthetic corpus, and
4. verify the outputs are identical.
"""

from repro.api import Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

SCRIPT = (
    "cat part0.txt part1.txt part2.txt part3.txt"
    " | tr A-Z a-z | grep light | sort | uniq -c | sort -rn | head -n 5"
)


def main() -> None:
    width = 4

    # 1+2. Compile the script and show the emitted parallel shell code.
    compiled = Pash.compile(SCRIPT, PashConfig.paper_default(width))
    print("=== input script ===")
    print(SCRIPT)
    print()
    print(f"=== parallel script (width {width}) ===")
    print(compiled.text)
    print()
    print(
        f"regions parallelized: {compiled.stats.regions_parallelized}, "
        f"runtime processes: {compiled.node_count}, "
        f"compile time: {compiled.stats.compile_time_seconds * 1000:.1f} ms"
    )

    # 3. Execute sequentially and in parallel over a synthetic corpus.
    corpus = {f"part{i}.txt": text.text_lines(500, seed=i) for i in range(width)}

    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(corpus)))
    sequential = interpreter.run_script(SCRIPT)

    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(corpus)))
    parallel = compiled.execute(backend="interpreter", environment=environment).stdout

    # 4. Compare.
    print()
    print("=== top-5 word counts (sequential) ===")
    print("\n".join(sequential))
    print()
    print("parallel output identical to sequential:", parallel == sequential)


if __name__ == "__main__":
    main()
