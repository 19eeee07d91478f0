#!/usr/bin/env python3
"""The NOAA temperature-analysis use case (paper §2.1 and §6.3, Fig. 1).

Run with::

    PYTHONPATH=src:benchmarks python examples/weather_analysis.py

The network fetch of the original script is replaced by a synthetic dataset
and a ``fetch-station`` stand-in command (see DESIGN.md); the pipeline
structure is otherwise the same: list the yearly index, keep the compressed
archives, fetch and decompress each, slice out the temperature column, drop
the 999 sentinels, and take the maximum per year.
"""

from repro.api import Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.usecases import noaa_usecase
from paper.workloads import noaa

YEARS = [2015, 2016, 2017]
STATIONS = 8
WIDTH = 4


def main() -> None:
    dataset = noaa.yearly_dataset(YEARS, STATIONS)
    print(f"synthetic NOAA dataset: {len(dataset)} files, "
          f"{sum(len(v) for v in dataset.values())} lines")
    print()

    for year in YEARS:
        script = noaa.per_year_pipeline(year, STATIONS)

        # Sequential baseline.
        interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
        sequential = interpreter.run_script(script)

        # PaSh-parallelized execution through the library API.
        environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
        compiled = Pash.compile(script, PashConfig.paper_default(WIDTH))
        parallel = compiled.execute(backend="interpreter", environment=environment).stdout

        marker = "OK" if parallel == sequential else "MISMATCH"
        print(f"[{marker}] {sequential[0]}")

    print()
    print("Simulated end-to-end speedups on a paper-scale dataset (2000 stations/year):")
    results = noaa_usecase(widths=(2, 10))
    for width, data in results["widths"].items():
        print(
            f"  width {width:>2}: sequential {data['sequential_seconds']:8.1f}s  "
            f"PaSh {data['parallel_seconds']:8.1f}s  speedup {data['speedup']:.2f}x"
        )
    print("(paper reports 1.86x / 2.44x end-to-end, 2.30x / 10.79x for the compute phase)")


if __name__ == "__main__":
    main()
