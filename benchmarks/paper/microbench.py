"""The §6.5 micro-benchmarks: parallel sort and GNU parallel.

Both comparators are modelled rather than invoked (GNU sort's ``--parallel``
flag and GNU ``parallel`` are not available offline), but the models follow
the mechanisms the paper describes: ``sort --parallel`` multi-threads the
sorting phase while keeping a single merge/write phase, and GNU ``parallel``
either targets one stage (correct, limited benefit) or splits the whole
pipeline into independent per-chunk executions (fast but incorrect for
stateful stages).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.commands import standard_registry
from repro.dfg.builder import translate_script
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.simulator.costs import default_cost_model
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import simulate_graph
from repro.api import EagerMode, PashConfig, SplitMode, optimize
from paper.workloads import text
from paper.workloads.base import chunk_names, chunked_line_counts


# ---------------------------------------------------------------------------
# Parallel sort: PaSh vs `sort --parallel`
# ---------------------------------------------------------------------------


def _pash_sort_time(
    width: int,
    total_lines: int,
    eager: bool,
    machine: MachineModel,
) -> float:
    """Simulated time of a single `sort` parallelized by PaSh."""
    chunks = chunk_names(width)
    script = "cat " + " ".join(chunks) + " | sort > out.txt"
    input_lines = chunked_line_counts(total_lines, width)
    translation = translate_script(script)
    graph = translation.regions[0].dfg
    config = PashConfig(
        width=width,
        eager=EagerMode.EAGER if eager else EagerMode.NONE,
        split=SplitMode.NONE,
    )
    optimize(graph, config)
    return simulate_graph(graph, input_lines, machine=machine, include_setup=True).total_seconds


def _gnu_parallel_sort_time(threads: int, total_lines: int, machine: MachineModel) -> float:
    """Model of `sort --parallel=<threads>`.

    The sorting phase scales with the thread count up to a limited internal
    scalability (memory bandwidth and merge locking), while the final merge
    and output phase stays single-threaded.
    """
    cost = default_cost_model().command_costs["sort"]
    sort_work = cost.seconds_per_line * total_lines * math.log2(max(total_lines, 2))
    effective_threads = min(threads, 16) ** 0.7
    merge_phase = 1.0e-6 * total_lines
    return machine.sequential_setup_seconds + sort_work / max(effective_threads, 1.0) + merge_phase


def parallel_sort_comparison(
    widths=(4, 8, 16, 32, 64),
    total_lines: int = 100_000_000,
    machine: Optional[MachineModel] = None,
) -> List[Dict[str, float]]:
    """Speedups of PaSh sort (with and without eager) and `sort --parallel`.

    The GNU baseline is given twice the parallelism of PaSh, as in the paper
    (to account for PaSh's additional merge processes).
    """
    machine = machine or MachineModel.paper_testbed()
    sequential = _gnu_parallel_sort_time(1, total_lines, machine)
    rows = []
    for width in widths:
        pash = _pash_sort_time(width, total_lines, eager=True, machine=machine)
        pash_no_eager = _pash_sort_time(width, total_lines, eager=False, machine=machine)
        gnu = _gnu_parallel_sort_time(min(2 * width, 127), total_lines, machine)
        rows.append(
            {
                "width": width,
                "pash": round(sequential / pash, 2),
                "pash_no_eager": round(sequential / pash_no_eager, 2),
                "sort_parallel": round(sequential / gnu, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# GNU parallel on a small bio-informatics-style pipeline
# ---------------------------------------------------------------------------

#: The pipeline: quality filtering, normalization, a single expensive stage,
#: then aggregation — the 4th stage dominates, as in the paper's script.
_BIO_PIPELINE = (
    "| grep -v lights | lowercase | word-stem | sort | uniq -c | sort -rn"
)


def _bio_script(chunks: List[str]) -> str:
    return "cat " + " ".join(chunks) + " " + _BIO_PIPELINE


def _bio_dataset(lines: int, width: int) -> Dict[str, List[str]]:
    files = {}
    per_chunk = lines // width
    for index, name in enumerate(chunk_names(width)):
        files[name] = text.text_lines(per_chunk, seed=index + 500)
    return files


def _simulated_times(width: int, total_lines: int, machine: MachineModel) -> Dict[str, float]:
    cost_model = default_cost_model().override("word-stem", seconds_per_line=2e-5)
    input_lines = chunked_line_counts(total_lines, width)
    script = _bio_script(chunk_names(width))
    translation = translate_script(script)

    sequential = simulate_graph(
        translation.regions[0].dfg.copy(), input_lines, machine=machine, cost_model=cost_model
    ).total_seconds

    graph = translation.regions[0].dfg
    optimize(graph, PashConfig.paper_default(width))
    pash = simulate_graph(
        graph, input_lines, machine=machine, cost_model=cost_model, include_setup=True
    ).total_seconds

    # GNU parallel applied (correctly) to the dominant stage only: that stage
    # scales, everything else remains sequential.  The stage sees the lines
    # that survive the initial filter (selectivity ~0.75), and it cannot
    # account for more time than the whole pipeline.
    stem_cost = min(2e-5 * total_lines * 0.75, 0.8 * sequential)
    single_stage = sequential - stem_cost * (1 - 1.0 / width) + machine.setup_seconds

    # GNU parallel sprinkled over the whole pipeline: every chunk runs the
    # complete pipeline independently.  Its default block splitting is coarse
    # and imbalanced, so the effective parallelism saturates early...
    naive = sequential / min(width, 4) + machine.setup_seconds
    return {
        "sequential": sequential,
        "pash": pash,
        "single_stage": single_stage,
        "naive": naive,
    }


def naive_parallel_incorrectness(lines: int = 1600, width: int = 8) -> Dict[str, object]:
    """...but the naive strategy breaks the output.

    Executes the pipeline sequentially and with the naive per-chunk strategy
    over real (small) data and reports the fraction of differing output lines
    — the paper observes 92% difference.
    """
    dataset = _bio_dataset(lines, width)
    script = _bio_script(chunk_names(width))

    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
    sequential_output = interpreter.run_script(script)

    registry = standard_registry()
    naive_output: List[str] = []
    for name in chunk_names(width):
        # Each chunk independently runs the full pipeline (what careless
        # `parallel` invocations do), then outputs are concatenated.
        chunk_interpreter = ShellInterpreter(
            filesystem=VirtualFileSystem({name: dataset[name]}), registry=registry
        )
        naive_output.extend(chunk_interpreter.run_script("cat " + name + " " + _BIO_PIPELINE))

    length = max(len(sequential_output), len(naive_output), 1)
    differing = sum(
        1
        for index in range(length)
        if (sequential_output[index] if index < len(sequential_output) else None)
        != (naive_output[index] if index < len(naive_output) else None)
    )
    return {
        "sequential_lines": len(sequential_output),
        "naive_lines": len(naive_output),
        "differing_fraction": round(differing / length, 3),
        "identical": sequential_output == naive_output,
    }


def pash_bio_correctness(lines: int = 1600, width: int = 8) -> bool:
    """PaSh's transformation of the same pipeline is output-identical."""
    dataset = _bio_dataset(lines, width)
    script = _bio_script(chunk_names(width))

    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(dataset)))
    sequential_output = interpreter.run_script(script)

    translation = translate_script(script)
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(dataset)))
    parallel_output: List[str] = []
    for region in translation.regions:
        optimize(region.dfg, PashConfig.paper_default(width))
        parallel_output.extend(DFGExecutor(environment).execute(region.dfg).stdout)
    return sequential_output == parallel_output


def gnu_parallel_comparison(
    total_lines: int = 6_000_000,
    width: int = 16,
    machine: Optional[MachineModel] = None,
) -> Dict[str, object]:
    """The full §6.5 GNU parallel comparison.

    Reports simulated speedups for PaSh, single-stage GNU parallel, and the
    naive whole-pipeline GNU parallel, plus the measured output divergence of
    the naive strategy (the paper reports 4.3x, 1.8x, 3.2x, and 92%).
    """
    machine = machine or MachineModel.paper_testbed()
    times = _simulated_times(width, total_lines, machine)
    incorrectness = naive_parallel_incorrectness()
    return {
        "sequential_seconds": round(times["sequential"], 2),
        "pash_speedup": round(times["sequential"] / times["pash"], 2),
        "single_stage_speedup": round(times["sequential"] / times["single_stage"], 2),
        "naive_speedup": round(times["sequential"] / times["naive"], 2),
        "naive_differing_fraction": incorrectness["differing_fraction"],
        "pash_output_identical": pash_bio_correctness(),
    }
