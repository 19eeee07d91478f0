#!/usr/bin/env python3
"""The execution engine: one script, three backends, measured for real.

Run with::

    PYTHONPATH=src:benchmarks python examples/parallel_engine.py

Demonstrates the unified backend API of :mod:`repro.engine`:

1. translate and optimize a classic pipeline at width 4,
2. execute it on the in-process interpreter (the oracle), on the
   multiprocess parallel engine (real worker processes connected with OS
   pipes), and — where a POSIX shell is available — as the emitted shell
   script,
3. verify all backends produce identical output, and
4. print the engine's per-node metrics: which OS process ran each node,
   how long it ran, and how many bytes crossed its pipes.
"""

import shutil

from repro.api import Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

SCRIPT = "cat part0.txt part1.txt part2.txt part3.txt | tr A-Z a-z | grep light | sort > out.txt"
WIDTH = 4


def fresh_environment() -> ExecutionEnvironment:
    files = {f"part{index}.txt": text.text_lines(400, seed=index) for index in range(WIDTH)}
    return ExecutionEnvironment(filesystem=VirtualFileSystem(files))


def main() -> None:
    compiled = Pash.compile(SCRIPT, PashConfig.paper_default(WIDTH))
    backends = ["interpreter", "parallel"]
    if shutil.which("sh"):
        backends.append("shell")

    print(f"=== script (width {WIDTH}) ===")
    print(SCRIPT)
    print()

    results = {}
    for backend in backends:
        results[backend] = compiled.execute(
            backend=backend, environment=fresh_environment()
        )

    print("=== backends ===")
    reference = results["interpreter"].output_of("out.txt")
    for backend in backends:
        result = results[backend]
        matches = "identical" if result.output_of("out.txt") == reference else "DIFFERENT!"
        print(
            f"{backend:<12} {result.elapsed_seconds * 1000:8.1f} ms   "
            f"{len(result.output_of('out.txt')):5d} output lines   {matches}"
        )
    print()

    metrics = results["parallel"].metrics
    print("=== parallel engine metrics ===")
    print(metrics.summary())
    print()
    print(f"{'node':<42}{'pid':<9}{'ms':<9}{'bytes in':<10}{'bytes out'}")
    for node in metrics.nodes:
        label = node.label if len(node.label) <= 40 else node.label[:37] + "..."
        print(
            f"{label:<42}{node.pid:<9}{node.wall_seconds * 1000:<9.2f}"
            f"{node.bytes_in:<10}{node.bytes_out}"
        )


if __name__ == "__main__":
    main()
