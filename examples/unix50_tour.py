#!/usr/bin/env python3
"""Tour of the Unix50 corpus (paper §6.2, Fig. 8).

Run with::

    PYTHONPATH=src:benchmarks python examples/unix50_tour.py

For a handful of representative pipelines this example shows what PaSh does
(or refuses to do), checks output equivalence on a small corpus, and reports
the simulated speedup at 16x parallelism for the whole 34-pipeline corpus.
"""

from repro.api import Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.figures import figure8_series, figure8_summary
from paper.workloads.unix50 import get_pipeline

SHOWCASE = [0, 11, 13, 2]  # word frequencies, numeric extremes, awk, tiny head
WIDTH = 4


def run_both(script, files):
    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(files)))
    sequential = interpreter.run_script(script)
    compiled = Pash.compile(script, PashConfig.paper_default(WIDTH))
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
    parallel = compiled.execute(backend="interpreter", environment=environment).stdout
    return sequential, parallel, compiled.translation


def main() -> None:
    for index in SHOWCASE:
        pipeline = get_pipeline(index)
        script = pipeline.script_for_width(WIDTH)
        print(f"--- pipeline {index}: {pipeline.description} [{pipeline.expected_group}]")
        print("    " + script.replace("\n", "\n    "))
        files = pipeline.correctness_dataset(WIDTH, lines=400)
        try:
            sequential, parallel, translation = run_both(script, files)
        except Exception as error:  # e.g. sed -n, outside the interpreter subset
            print(f"    (skipped execution: {error})")
            continue
        if translation.rejected:
            reason = translation.rejected[0][1]
            print(f"    PaSh left this pipeline sequential: {reason}")
        else:
            print(f"    parallelized; output identical: {parallel == sequential}")
        print()

    print("Simulated Fig. 8 summary at 16x over all 34 pipelines:")
    points = figure8_series(width=16)
    summary = figure8_summary(points)
    accelerated = sum(1 for point in points if point["speedup"] > 1.5)
    print(f"  accelerated pipelines : {accelerated}/34")
    print(f"  average speedup       : {summary['average']}x (paper: 5.49x)")
    print(f"  median speedup        : {summary['median']}x (paper: 6.07x)")
    print(f"  weighted average      : {summary['weighted_average']}x (paper: 5.75x)")


if __name__ == "__main__":
    main()
