#!/usr/bin/env python3
"""The Wikipedia web-indexing use case (paper §6.4).

Run with::

    PYTHONPATH=src:benchmarks python examples/web_indexing.py

The pipeline mixes POSIX utilities with custom commands written "in other
languages" (here: Python implementations registered under their own names:
``fetch-page``, ``html-to-text``, ``word-stem``).  Each custom command
carries a one-line parallelizability annotation, which is all PaSh needs to
data-parallelize the bulk of the work.
"""

from repro.annotations.library import standard_library
from repro.api import Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from paper.usecases import wikipedia_usecase
from paper.workloads import wikipedia

PAGES = 16
WIDTH = 4


def main() -> None:
    script = wikipedia.indexing_script()
    print("=== indexing pipeline ===")
    print(script)
    print()

    library = standard_library()
    print("annotations of the non-POSIX stages:")
    for name in ("fetch-page", "html-to-text", "word-stem", "lowercase"):
        print(f"  {name:<14} -> {library.classify(name, []).value}")
    print()

    dataset = wikipedia.dataset(PAGES)

    # Sequential baseline.
    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
    interpreter.run_script(script)
    sequential_index = interpreter.state.filesystem.read("index.txt")

    # PaSh-parallelized run through the library API.
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
    Pash.compile(script, PashConfig.paper_default(WIDTH)).execute(
        backend="interpreter", environment=environment
    )
    parallel_index = environment.filesystem.read("index.txt")

    print(f"indexed {PAGES} pages -> {len(sequential_index)} distinct stemmed terms")
    print("top terms:")
    for line in sequential_index[:8]:
        print("  " + line)
    print()
    print("parallel index identical to sequential:", parallel_index == sequential_index)

    print()
    print("Simulated speedups on the paper-scale corpus (1% of Wikipedia):")
    results = wikipedia_usecase(widths=(2, 16))
    for width, data in results["widths"].items():
        print(f"  width {width:>2}: speedup {data['speedup']:.2f}x")
    print("(paper reports 1.97x at width 2 and 12.7x at width 16)")


if __name__ == "__main__":
    main()
