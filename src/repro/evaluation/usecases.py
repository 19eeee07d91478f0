"""The two large use cases: NOAA weather analysis (§6.3) and Wikipedia
web indexing (§6.4)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dfg.builder import translate_script
from repro.evaluation.harness import simulate_script
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.simulator.costs import default_cost_model
from repro.simulator.machine import MachineModel
from repro.api import PashConfig, optimize
from repro.workloads import noaa, wikipedia


def _simulate_script(
    script: str,
    input_lines: Dict[str, int],
    width: int,
    machine: Optional[MachineModel] = None,
    cost_model=None,
) -> Dict[str, float]:
    """Simulate sequential and PaSh execution of a script; return both times."""
    machine = machine or MachineModel.paper_testbed()
    cost_model = cost_model or default_cost_model()
    sequential, parallel, _ = simulate_script(
        script,
        input_lines,
        PashConfig.paper_default(width),
        machine=machine,
        cost_model=cost_model,
    )
    speedup = sequential.total_seconds / parallel.total_seconds if parallel.total_seconds else 0.0
    return {
        "sequential_seconds": round(sequential.total_seconds, 2),
        "parallel_seconds": round(parallel.total_seconds, 2),
        "speedup": round(speedup, 2),
    }


# ---------------------------------------------------------------------------
# NOAA weather analysis
# ---------------------------------------------------------------------------


def noaa_usecase(
    widths=(2, 10),
    stations_per_year: int = 2000,
    machine: Optional[MachineModel] = None,
) -> Dict[str, object]:
    """Simulate the Fig. 1 pipeline per year and report speedups per width.

    The paper reports 1.86x / 2.44x end-to-end speedup at 2x / 10x
    parallelism, with the max-temperature reduction phase benefiting most.
    """
    results: Dict[str, object] = {"widths": {}}
    input_lines = noaa.simulated_line_counts(stations=stations_per_year)
    # One year's pipeline is representative; the full script repeats it.
    script = noaa.per_year_pipeline(noaa.YEARS[0], stations_per_year)
    for width in widths:
        results["widths"][width] = _simulate_script(script, input_lines, width, machine)
    return results


def noaa_correctness(years: Optional[List[int]] = None, stations: int = 6) -> Dict[str, object]:
    """Run the NOAA pipeline sequentially and in parallel on a small dataset."""
    years = years or noaa.YEARS[:2]
    dataset = noaa.yearly_dataset(years, stations)

    sequential_outputs: List[str] = []
    parallel_outputs: List[str] = []
    for year in years:
        script = noaa.per_year_pipeline(year, stations)

        interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
        sequential_outputs.extend(interpreter.run_script(script))

        translation = translate_script(script)
        environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
        for region in translation.regions:
            optimize(region.dfg, PashConfig.paper_default(4))
            parallel_outputs.extend(DFGExecutor(environment).execute(region.dfg).stdout)

    return {
        "sequential": sequential_outputs,
        "parallel": parallel_outputs,
        "identical": sequential_outputs == parallel_outputs,
    }


# ---------------------------------------------------------------------------
# Wikipedia web indexing
# ---------------------------------------------------------------------------


def wikipedia_usecase(
    widths=(2, 16),
    url_count: int = 6000,
    machine: Optional[MachineModel] = None,
) -> Dict[str, object]:
    """Simulate the indexing pipeline; paper reports 1.97x / 12.7x at 2x / 16x."""
    results: Dict[str, object] = {"widths": {}}
    input_lines = {"urls.txt": url_count}
    script = wikipedia.indexing_script()
    for width in widths:
        results["widths"][width] = _simulate_script(script, input_lines, width, machine)
    return results


def wikipedia_correctness(pages: int = 24, width: int = 4) -> Dict[str, object]:
    """Check that the parallel indexing output matches the sequential output."""
    dataset = wikipedia.dataset(pages)
    script = wikipedia.indexing_script()

    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
    interpreter.run_script(script)
    sequential_index = interpreter.state.filesystem.read("index.txt")

    translation = translate_script(script)
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
    for region in translation.regions:
        optimize(region.dfg, PashConfig.paper_default(width))
        DFGExecutor(environment).execute(region.dfg)
    parallel_index = environment.filesystem.read("index.txt")

    return {
        "sequential": sequential_index,
        "parallel": parallel_index,
        "identical": sequential_index == parallel_index,
    }
