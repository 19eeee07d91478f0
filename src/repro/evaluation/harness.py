"""Shared plumbing for the evaluation: compile, simulate, measure, check.

Two kinds of performance numbers coexist here:

* *simulated* (``simulate_benchmark``) — the discrete-event cost model used
  to regenerate the paper's figures at paper-scale inputs, and
* *measured* (``measure_benchmark``) — real wall-clock runs of the same
  scripts on the execution engine (``repro.engine``), over datasets small
  enough to execute, with per-node metrics from the worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.library import AnnotationLibrary, standard_library
from repro.annotations.model import simple_record
from repro.api import PashConfig
from repro.dfg.builder import DFGBuilder, UntranslatableRegion
from repro.dfg.graph import DataflowGraph
from repro.dfg.regions import find_parallelizable_regions
from repro.engine.metrics import EngineMetrics
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.shell.parser import parse
from repro.simulator.costs import CostModel
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import SimulationResult, simulate_script_graphs
from repro.workloads.base import BenchmarkScript


def timing_library() -> AnnotationLibrary:
    """An annotation library used only for *timing* rejected fragments.

    Commands PaSh refuses to parallelize (``awk``, ``sed -n``, ``nl``) still
    have to be accounted for when estimating a script's sequential running
    time.  This library reclassifies them as non-parallelizable pure commands
    — they translate into DFG nodes that the optimizer never touches — so the
    simulator can time the fragments that PaSh leaves untouched.
    """
    library = standard_library().copy()
    for name in ("awk", "sed", "nl", "echo", "seq", "file"):
        library.register(simple_record(name, ParallelizabilityClass.NON_PARALLELIZABLE_PURE))
    return library


@dataclass
class ScriptGraphs:
    """Sequential and parallel graph sets for one script."""

    sequential: List[DataflowGraph] = field(default_factory=list)
    parallel: List[DataflowGraph] = field(default_factory=list)
    node_count: int = 0
    compile_time_seconds: float = 0.0
    rejected_statements: int = 0


def script_graphs(script: str, config: PashConfig) -> ScriptGraphs:
    """Build the sequential and PaSh-parallel graph sets for ``script``.

    Every statement is translated with the lenient timing library for the
    sequential baseline.  Statements PaSh's (conservative, standard-library)
    front-end accepts are additionally optimized; statements it rejects are
    carried over unoptimized, exactly as the emitted script would leave them
    untouched.
    """
    # The discrete-event simulator models the paper's one-process-per-node
    # runtime; our post-paper stage fusion would misrepresent it, so the
    # simulated graph shapes pin it off (the engine's measured runs keep it).
    config = config.replace(fuse_stages=False)

    ast = parse(script)
    standard_builder = DFGBuilder(standard_library())
    lenient_builder = DFGBuilder(timing_library())

    result = ScriptGraphs()
    for candidate in find_parallelizable_regions(ast):
        try:
            baseline = lenient_builder.build_region(candidate).dfg
        except (UntranslatableRegion, Exception):  # noqa: BLE001 - conservative
            continue
        result.sequential.append(baseline.copy())

        try:
            region = standard_builder.build_region(candidate)
        except (UntranslatableRegion, Exception):  # noqa: BLE001 - conservative
            result.rejected_statements += 1
            result.parallel.append(baseline)
            continue
        report = api.optimize(region.dfg, config)
        result.compile_time_seconds += report.compile_time_seconds
        result.parallel.append(region.dfg)
    result.node_count = sum(len(graph.nodes) for graph in result.parallel)
    return result


@dataclass
class BenchmarkRun:
    """One simulated benchmark execution (sequential or parallel)."""

    name: str
    width: int
    configuration: str
    script: str
    node_count: int
    compile_time_seconds: float
    sequential_seconds: float
    parallel_seconds: float

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return float("inf")
        return self.sequential_seconds / self.parallel_seconds


def simulate_script(
    script: str,
    input_lines: Dict[str, int],
    config: PashConfig,
    machine: Optional[MachineModel] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[SimulationResult, SimulationResult, ScriptGraphs]:
    """Simulate sequential and PaSh execution of a script.

    Returns (sequential result, parallel result, graphs).
    """
    machine = machine or MachineModel.paper_testbed()
    graphs = script_graphs(script, config)
    sequential = simulate_script_graphs(
        graphs.sequential, input_lines, machine=machine, cost_model=cost_model
    )
    parallel = simulate_script_graphs(
        graphs.parallel, input_lines, machine=machine, cost_model=cost_model, include_setup=True
    )
    return sequential, parallel, graphs


def simulate_benchmark(
    benchmark: BenchmarkScript,
    width: int,
    config: Optional[PashConfig] = None,
    configuration_name: str = "Par + Split",
    machine: Optional[MachineModel] = None,
    cost_model: Optional[CostModel] = None,
) -> BenchmarkRun:
    """Simulate one benchmark at one width under one configuration."""
    machine = machine or MachineModel.paper_testbed()
    cost_model = cost_model or benchmark.cost_model()
    config = config or PashConfig.paper_default(width)

    script = benchmark.script_for_width(width)
    input_lines = benchmark.input_line_counts(width)

    sequential, parallel, graphs = simulate_script(
        script, input_lines, config, machine=machine, cost_model=cost_model
    )
    return BenchmarkRun(
        name=benchmark.name,
        width=width,
        configuration=configuration_name,
        script=script,
        node_count=graphs.node_count,
        compile_time_seconds=graphs.compile_time_seconds,
        sequential_seconds=sequential.total_seconds,
        parallel_seconds=parallel.total_seconds,
    )


def speedup_for_width(
    benchmark: BenchmarkScript,
    width: int,
    config: Optional[PashConfig] = None,
    **kwargs,
) -> float:
    """Convenience wrapper returning only the speedup."""
    return simulate_benchmark(benchmark, width, config, **kwargs).speedup


# ---------------------------------------------------------------------------
# Measured (wall-clock) execution on the engine
# ---------------------------------------------------------------------------


@dataclass
class MeasuredRun:
    """One real execution of a benchmark script on an engine backend."""

    name: str
    width: int
    backend: str
    elapsed_seconds: float
    stdout_lines: int
    output_lines: int
    metrics: EngineMetrics


def measure_benchmark(
    benchmark: BenchmarkScript,
    width: int,
    backend: str = "parallel",
    lines: int = 2400,
    config: Optional[PashConfig] = None,
) -> MeasuredRun:
    """Execute one benchmark for real and report measured wall-clock time.

    ``config=None`` runs the unoptimized graphs (the sequential shape);
    passing a :class:`PashConfig` measures the parallelized
    graphs on the chosen backend.
    """
    dataset = benchmark.correctness_dataset(width, lines)
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(data) for name, data in dataset.items()})
    )
    preexisting = set(environment.filesystem.names())
    result = api.run(
        benchmark.script_for_width(width),
        config=config,
        backend=backend,
        environment=environment,
    )
    produced = {name: data for name, data in result.files.items() if name not in preexisting}
    return MeasuredRun(
        name=benchmark.name,
        width=width,
        backend=backend,
        elapsed_seconds=result.elapsed_seconds,
        stdout_lines=len(result.stdout),
        output_lines=sum(len(data) for data in produced.values()),
        metrics=result.metrics,
    )


def measured_speedup(
    benchmark: BenchmarkScript,
    width: int,
    lines: int = 2400,
    config: Optional[PashConfig] = None,
    backend: str = "parallel",
) -> Tuple[MeasuredRun, MeasuredRun, float]:
    """Wall-clock comparison: interpreter baseline vs a real engine backend.

    Returns (baseline run, measured run, speedup).  ``backend`` defaults to
    the parallel engine; ``"jit"`` measures the runtime-compiling driver
    instead.  Unlike the simulator's Fig. 7 numbers, these are honest
    measurements on this machine's cores.
    """
    config = config or PashConfig.paper_default(width)
    baseline = measure_benchmark(benchmark, width, backend="interpreter", lines=lines)
    parallel = measure_benchmark(benchmark, width, backend=backend, lines=lines, config=config)
    if parallel.elapsed_seconds <= 0:
        return baseline, parallel, float("inf")
    return baseline, parallel, baseline.elapsed_seconds / parallel.elapsed_seconds


# ---------------------------------------------------------------------------
# Correctness checking
# ---------------------------------------------------------------------------


@dataclass
class CorrectnessReport:
    """Outcome of checking parallel output against the sequential baseline."""

    name: str
    width: int
    identical: bool
    sequential_output: List[str] = field(default_factory=list)
    parallel_output: List[str] = field(default_factory=list)
    differing_lines: int = 0


def check_benchmark_correctness(
    benchmark: BenchmarkScript,
    width: int = 4,
    lines: int = 1200,
    config: Optional[PashConfig] = None,
    backend: str = "interpreter",
) -> CorrectnessReport:
    """Execute a benchmark sequentially and in parallel over a small dataset.

    The sequential baseline runs on the shell interpreter; the parallelized
    graphs run on the chosen engine backend (``interpreter`` keeps the
    historical in-process check, ``parallel`` exercises the multiprocess
    engine).  The comparison covers stdout plus every file the script writes.
    """
    config = config or PashConfig.paper_default(width)
    dataset = benchmark.correctness_dataset(width, lines)
    script = benchmark.script_for_width(width)

    sequential_files, sequential_stdout = _run_sequential(script, dataset)
    parallel_files, parallel_stdout = _run_parallel(script, dataset, config, backend)

    sequential_all = sequential_stdout + _flatten(sequential_files)
    parallel_all = parallel_stdout + _flatten(parallel_files)
    differing = sum(1 for a, b in zip(sequential_all, parallel_all) if a != b)
    differing += abs(len(sequential_all) - len(parallel_all))

    return CorrectnessReport(
        name=benchmark.name,
        width=width,
        identical=sequential_all == parallel_all,
        sequential_output=sequential_all,
        parallel_output=parallel_all,
        differing_lines=differing,
    )


def _flatten(files: Dict[str, List[str]]) -> List[str]:
    flattened: List[str] = []
    for name in sorted(files):
        flattened.append(f"== {name} ==")
        flattened.extend(files[name])
    return flattened


def _run_sequential(script: str, dataset: Dict[str, List[str]]):
    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
    stdout = interpreter.run_script(script)
    files = {
        name: interpreter.state.filesystem.read(name)
        for name in interpreter.state.filesystem.names()
        if name not in dataset
    }
    return files, stdout


def _run_parallel(
    script: str,
    dataset: Dict[str, List[str]],
    config: PashConfig,
    backend: str = "interpreter",
):
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
    result = api.run(script, config=config, backend=backend, environment=environment)
    files = {
        name: environment.filesystem.read(name)
        for name in environment.filesystem.names()
        if name not in dataset
    }
    return files, result.stdout
