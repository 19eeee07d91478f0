"""The region planner: choose a region's width from its predicted cost.

Every shape the pass pipeline produces for a region has the same output (the
order-aware dataflow model proves it), so *which* shape runs is free of
semantic risk and may be decided per execution.  The JIT driver is the one
tier that has the region's input in hand when it decides; it asks this module.

Inputs: the region's sequential (un-parallelized) graph, the line count
behind each of its input files and stdin, which of those the caller holds in
memory, the configuration (``width`` is the ceiling), and the machine.  The planner simulates the graph as it stands on
the in-process executor, and each candidate width's compiled shape on the
worker pool, with :func:`repro.simulator.simulate_graph` over two measured
tables — :func:`repro.simulator.costs.python_cost_model` (the rates of our
own kernels) and :meth:`MachineModel.this_host` (cores, per-node dispatch,
channel rate) — and picks the cheapest; a tie goes to the lower width.

Which shape runs is purely a cost question, and a cost question may be
answered by a bound: every pool shape pays the driver's feed, the per-run
setup and one process at least, so a sequential prediction at or under that
floor has already won and no candidate is compiled, let alone simulated.

The decision is a pure function of (graph, line counts, cores) and of where
the inputs live: nothing is timed, so a run repeats.  The ahead-of-time compiler never calls this: asked
for a width there, you get that width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional

from repro.dfg.graph import DataflowGraph
from repro.simulator.costs import python_cost_model
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import simulate_graph

if TYPE_CHECKING:  # pragma: no cover - repro.api.config imports this package
    from repro.api.config import PashConfig

#: The rates of our own kernels; read-only, so built once.
_COSTS = python_cost_model()


@dataclass
class RegionPlan:
    """The planner's decision for one region execution, with its evidence."""

    #: The chosen width; 1 means the sequential graph, in-process.
    width: int
    #: Lines the region reads in total (files plus stdin).
    input_lines: int
    #: Predicted seconds of the sequential graph on the in-process executor.
    predicted_sequential_seconds: float
    #: Predicted seconds of the best pool shape (0.0 when there is no
    #: candidate: ``config.width`` or the cores allow only width 1).
    predicted_parallel_seconds: float
    #: True when no pool shape was simulated and the figure above is the
    #: floor under all of them, which the sequential prediction did not exceed.
    parallel_is_floor: bool = False


def candidate_widths(limit: int) -> List[int]:
    """The widths worth simulating up to ``limit``: powers of two, and it."""
    widths = []
    width = 2
    while width < limit:
        widths.append(width)
        width *= 2
    if limit >= 2:
        widths.append(limit)
    return widths


def plan_region(
    sequential_graph: DataflowGraph,
    input_lines: Dict[str, int],
    config: "PashConfig",
    stdin_lines: int = 0,
    machine: Optional[MachineModel] = None,
    compile_candidate: Optional[Callable[[int], DataflowGraph]] = None,
    in_memory: Collection[str] = (),
) -> RegionPlan:
    """Simulate the region at width 1 and, unless the floor under every pool
    shape already loses, at each candidate width; pick the cheapest.

    ``compile_candidate(width)`` returns the region's compiled shape at a
    width; the default runs the configured pass pipeline over a copy of the
    sequential graph (the JIT driver passes one that consults its plan cache).
    ``in_memory`` names the input files the caller holds as lists (stdin
    always is one): the in-process executor reads those for free, while a
    pool worker has to be sent them before it can start.
    """
    machine = machine or MachineModel.this_host()
    total_lines = stdin_lines + sum(
        input_lines.get(edge.name or "", 0)
        for edge in sequential_graph.input_edges()
        if edge.name
    )
    sequential = simulate_graph(
        sequential_graph,
        input_lines,
        machine=machine.in_process(),
        cost_model=_COSTS,
        stdin_lines=stdin_lines,
    )
    widths = candidate_widths(min(config.width, machine.cores))
    if not widths:
        return RegionPlan(1, total_lines, sequential.total_seconds, 0.0)
    feed = machine.feed_seconds(
        stdin_lines + sum(input_lines.get(name, 0) for name in set(in_memory))
    )
    best = sequential.total_seconds
    if 0 < machine.in_process_lines < sum(sequential.edge_lines.values()):
        # Too large to hold every edge at once: any pool shape beats it.
        best = math.inf
    # What ``simulate_graph`` adds to any shape with a process in it, under
    # ``include_setup``; the makespan and the collection come on top.
    floor = feed + machine.setup_seconds + machine.spawn_seconds(1)
    if best <= floor:
        return RegionPlan(1, total_lines, sequential.total_seconds, floor, parallel_is_floor=True)
    if compile_candidate is None:
        pipeline = config.pipeline()

        def compile_candidate(width: int) -> DataflowGraph:
            candidate = sequential_graph.copy()
            pipeline.run(candidate, config.replace(width=width))
            return candidate

    predicted = {
        width: feed
        + simulate_graph(
            compile_candidate(width),
            input_lines,
            machine=machine,
            cost_model=_COSTS,
            include_setup=True,
            stdin_lines=stdin_lines,
            in_memory=in_memory,
        ).total_seconds
        for width in widths
    }
    plan = RegionPlan(1, total_lines, sequential.total_seconds, min(predicted.values()))
    for width, seconds in predicted.items():  # ascending, so a tie keeps the lower width
        if seconds < best:
            best, plan.width = seconds, width
    return plan


def choose_width(
    sequential_graph: DataflowGraph,
    input_lines: Dict[str, int],
    config: "PashConfig",
    stdin_lines: int = 0,
    machine: Optional[MachineModel] = None,
    in_memory: Collection[str] = (),
) -> int:
    """The width :func:`plan_region` picks (1 = keep the region in-process)."""
    return plan_region(
        sequential_graph, input_lines, config, stdin_lines, machine, in_memory=in_memory
    ).width
