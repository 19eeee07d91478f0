#!/usr/bin/env python3
"""JIT orchestration: a dynamic script the AOT compiler cannot touch.

Run with::

    PYTHONPATH=src:benchmarks python examples/jit_orchestration.py

The script below mixes a ``for`` loop over a glob, a runtime variable, a
command substitution, and a conditional — every one a reason the AOT path
leaves regions sequential.  The JIT driver executes the control flow
itself, compiles each region with the bindings in force when it is reached,
caches plans across loop iterations, and runs them on the parallel engine.
"""

from repro.api import PashConfig, run
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

WIDTH = 4

SCRIPT = """\
pat=light
for f in part*.txt; do
  grep $pat "$f" | sort | head -n 3
done
total=$(cat part0.txt part1.txt | grep -c $pat)
if test $total -gt 0; then
  grep $pat part0.txt | tail -n 2
fi
"""


def dataset():
    return {
        f"part{index}.txt": text.text_lines(400, seed=index) for index in range(4)
    }


def main() -> None:
    print("script:")
    for line in SCRIPT.splitlines():
        print(f"  {line}")

    # The sequential oracle.
    oracle = ShellInterpreter(filesystem=VirtualFileSystem(dataset()))
    expected = oracle.run_script(SCRIPT)

    # The JIT driver, compiled regions on the parallel engine.
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dataset()))
    result = run(
        SCRIPT,
        config=PashConfig.paper_default(WIDTH),
        backend="jit",
        environment=environment,
    )

    print(f"\nstdout ({len(result.stdout)} lines, first 6):")
    for line in result.stdout[:6]:
        print(f"  {line}")
    print(f"\nbyte-identical to the interpreter: {result.stdout == expected}")
    print(f"{result.jit.summary()}")
    print(f"engine: {result.metrics.summary()}")
    for outcome in result.jit.outcomes:
        marker = {"compiled": "C", "cached": "H", "fallback": "-"}[outcome.action]
        reason = f"  ({outcome.reason})" if outcome.reason else ""
        print(f"  [{marker}] {outcome.text}{reason}")


if __name__ == "__main__":
    main()
