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
Past it, :func:`pool_floors` bounds each width from the sequential simulation
already in hand — the lanes and merges a shape must run, the per-line work
its copies share — and a sequential prediction at or under the least of
those bounds has won as well.

The decision is a pure function of (graph, line counts, cores) and of where
the inputs live: nothing is timed, so a run repeats.  The ahead-of-time compiler never calls this: asked
for a width there, you get that width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional

from repro.annotations.classes import ParallelizabilityClass
from repro.dfg.elision import is_plain_cat
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import CatNode
from repro.simulator.costs import CALIBRATION_LINES, python_cost_model
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import SimulationResult, simulate_graph
from repro.transform.parallelize import DEFAULT_AGGREGATOR
from repro.transform.passes import MINIMUM_COPIES, gets_copies
from repro.transform.pipeline import SplitMode

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
    bound = feed + min(pool_floors(sequential_graph, sequential, widths, machine, config).values())
    if best <= bound:
        return RegionPlan(1, total_lines, sequential.total_seconds, bound, parallel_is_floor=True)
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


def pool_floors(
    graph: DataflowGraph,
    sequential: SimulationResult,
    widths: List[int],
    machine: MachineModel,
    config: "PashConfig",
) -> Dict[int, float]:
    """Per width, seconds under which no pool shape of ``graph`` is predicted.

    Read off ``sequential`` (the graph's in-process simulation), before any
    shape exists, from what :func:`simulate_graph` bills every pool shape:
    the setup, a spawn per process and at least the kernels' work over the
    cores (the feed is the caller's to add; startup, channel and collection
    terms are left out).  A command given copies runs on at least two lanes,
    one of which may be the driver's own inline lane;
    where the graph is one chain, every class-P command given copies closes
    a fused stage, and a later stage with copies adds its own lanes, the
    aggregator and a split in between.  The copies of a command see its lines
    between them (order-aware dataflow model, arXiv 2012.15422), so an
    ``n log n`` command bills at least ``n·log2(n/w)`` and a linear one its
    ``n`` lines — unless it may be fused under an ``n log n`` tail, where
    ``_compose`` restates it by ``log2(n/w)/log2(CALIBRATION_LINES)``.  The
    logarithm is taken of the fewest lines into the command or anything
    upstream (a stage bills at its head's size); a class-P command's
    aggregator scales what its consumers see by its own selectivity.  Plain
    ``cat``s are elided or commuted away, and bill nothing.
    """
    order = graph.topological_order()
    costs = {node.node_id: _COSTS.cost_for(node) for node in order}
    nlogn = {node_id: cost.complexity == "nlogn" for node_id, cost in costs.items()}
    nlogn_below: Dict[int, bool] = {}
    for node in reversed(order):
        nlogn_below[node.node_id] = any(
            nlogn[after.node_id] or nlogn_below[after.node_id] for after in graph.successors(node)
        )
    splits = config.split is not SplitMode.NONE
    terms = []  # (seconds per line, lines, fewest lines up to a possible stage head, shape)
    scale: Dict[int, float] = {}  # node id -> share of its sequential lines every shape carries out
    fewest: Dict[int, float] = {}
    chain = True
    stages = boundaries = 0
    open_stage = closed_stage = False
    for node in order:
        producers = graph.predecessors(node)
        chain = chain and len(producers) <= 1 and len(graph.successors(node)) <= 1
        share = min((scale[producer.node_id] for producer in producers), default=1.0)
        lines = share * sum(sequential.edge_lines.get(edge_id, 0) for edge_id in node.inputs)
        fewest[node.node_id] = min([lines] + [fewest[producer.node_id] for producer in producers])
        scale[node.node_id] = share
        if isinstance(node, CatNode) or is_plain_cat(node):
            continue
        shape = "nlogn" if nlogn[node.node_id] else "restated" if nlogn_below[node.node_id] else "linear"
        terms.append((costs[node.node_id].seconds_per_line, lines, fewest[node.node_id], shape))
        if not (splits and gets_copies(node)):
            continue
        if not open_stage:
            stages += 1
            boundaries += closed_stage
            open_stage = True
        if node.parallelizability_class is not ParallelizabilityClass.STATELESS:
            open_stage, closed_stage = False, True
            merge = _COSTS.aggregator_costs.get(node.aggregator or DEFAULT_AGGREGATOR)
            if merge is not None and merge.fixed_output_lines is None:
                scale[node.node_id] = share * min(1.0, merge.selectivity)
    if not chain:  # lanes and merges are only counted along one chain
        stages, boundaries = min(stages, 1), 0
    # Less the inline lane, which the driver runs once another node has a process.
    processes = max(1, MINIMUM_COPIES * (stages + boundaries) - 1)
    calibration = math.log2(CALIBRATION_LINES)
    floors = {}
    for width in widths:
        work = 0.0
        for seconds, lines, least, shape in terms:
            factor = math.log2(least / width) if least > width else 0.0
            if shape == "restated":
                factor = min(1.0, factor / calibration)
            elif shape == "linear":
                factor = 1.0
            work += seconds * lines * factor
        floors[width] = machine.setup_seconds + machine.spawn_seconds(processes) + work / max(machine.cores, 1)
    return floors


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
