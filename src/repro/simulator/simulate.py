"""Analytic discrete-event-style simulation of DFG execution.

For every node the simulator derives three quantities:

* ``available`` — when the node's output starts to become available to its
  consumers (streaming nodes forward data almost immediately; blocking nodes
  such as ``sort`` only after they finished),
* ``finish`` — when the node's output is complete, and
* ``work`` — the CPU seconds it consumes.

Streaming stages overlap (a chain's finish time is governed by its slowest
stage), blocking stages cut the pipeline, and combiners (``cat`` and
aggregators) treat their input branches differently depending on whether
eager relays feed them:

* eager relays   → branches progress independently (max of finishes),
* blocking relay → branches progress independently but the combiner starts
  only after all of them finished,
* no relay       → the branches' emission serializes (the §5.2 laziness
  pathology).

The resulting makespan is finally adjusted for the machine's core count and
per-process spawn costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional

from repro.dfg.edges import EdgeKind
from repro.dfg.elision import Elisions, plan_elisions
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, DFGNode, RelayNode, SplitNode
from repro.simulator.costs import CostModel, default_cost_model
from repro.simulator.machine import MachineModel

#: Per-line cost of pushing output through an unbuffered FIFO to a consumer
#: that is not yet reading (the serialized-emission penalty of lazily-read
#: branches).  Eager relays remove this cost by draining the producer at full
#: speed.
_EMIT_SECONDS_PER_LINE = 2.5e-7


@dataclass
class NodeTiming:
    """Timing derived for one node."""

    node_id: int
    label: str
    start: float
    available: float
    finish: float
    work: float
    input_lines: int
    output_lines: int


@dataclass
class SimulationResult:
    """Outcome of simulating one graph."""

    total_seconds: float
    critical_path_seconds: float
    work_seconds: float
    process_count: int
    node_timings: Dict[int, NodeTiming] = field(default_factory=dict)
    edge_lines: Dict[int, int] = field(default_factory=dict)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of ``baseline`` relative to this result (baseline / self)."""
        if self.total_seconds <= 0:
            return float("inf")
        return baseline.total_seconds / self.total_seconds


def simulate_graph(
    graph: DataflowGraph,
    input_lines: Dict[str, int],
    machine: Optional[MachineModel] = None,
    cost_model: Optional[CostModel] = None,
    include_setup: bool = False,
    stdin_lines: int = 0,
    in_memory: Collection[str] = (),
) -> SimulationResult:
    """Simulate ``graph`` given the number of lines behind each input file.

    On a machine whose relays are not processes (our scheduler) the nodes
    :func:`~repro.dfg.elision.plan_elisions` leaves out cost no process, no
    channel crossing and do not block; an input file is on disk, so a split
    over it is byte ranges, unless ``in_memory`` names it.  A gathered
    aggregator still has work to do: the driver does it, once its last
    branch is in.  So does the inline lane: its kernels' work, on the
    driver, with no process to spawn or dispatch and no channel to cross.
    """
    machine = machine or MachineModel.paper_testbed()
    cost_model = cost_model or default_cost_model()
    input_edges = [edge for edge in graph.edges.values() if edge.is_graph_input]
    elided = Elisions()
    if not machine.relays_are_processes:
        on_disk = {
            edge.edge_id
            for edge in input_edges
            if edge.kind is EdgeKind.FILE and edge.name not in in_memory
        }
        elided = plan_elisions(graph, on_disk)
    # A stream no process consumes (a graph output, a gathered node's branch).
    collected = {None, *elided.skipped}
    merged = {
        node.node_id for node in elided.gathers.values() if isinstance(node, AggregatorNode)
    }

    edge_lines: Dict[int, int] = {}
    edge_available: Dict[int, float] = {}
    edge_finish: Dict[int, float] = {}
    edge_emit_duration: Dict[int, float] = {}

    reader_count = max(len(input_edges), 1)
    for edge in input_edges:
        if edge.kind is EdgeKind.STDIN:
            lines = stdin_lines
        elif edge.kind is EdgeKind.FILE:
            lines = input_lines.get(edge.name or "", 0)
        else:
            lines = 0
        edge_lines[edge.edge_id] = lines
        edge_available[edge.edge_id] = 0.0
        edge_finish[edge.edge_id] = machine.disk_seconds(lines, readers=reader_count)
        edge_emit_duration[edge.edge_id] = edge_finish[edge.edge_id]

    node_timings: Dict[int, NodeTiming] = {}
    total_work = 0.0
    process_count = decoded = 0

    for node in graph.topological_order():
        cost = cost_model.cost_for(node)
        in_lines = [edge_lines.get(edge_id, 0) for edge_id in node.inputs]
        total_in = sum(in_lines)

        bridged = node.node_id in elided.skipped
        start, input_complete, extra_busy = _combine_inputs(
            graph, node, edge_available, edge_finish, edge_emit_duration, bridged
        )

        out_lines = _output_lines(node, cost, total_in, in_lines)
        if node.node_id in merged:
            work = cost.work_seconds(total_in)  # the driver's, after the last branch
            start = input_complete
        elif bridged:
            work = 0.0  # left out of the plan: its stream is at rest
        else:
            # Each edge is billed once, to its consumer; a collected stream
            # is paid for by its producer.
            delivered = sum(
                lines
                for edge_id, lines in zip(node.outputs, out_lines)
                if graph.edges[elided.tail(edge_id)].target in collected
            )
            work = cost.work_seconds(total_in)
            if node.node_id != elided.inline:
                work += machine.channel_seconds(total_in + delivered)
                process_count += 1
            decoded += delivered  # by the driver, once the run is over
        total_work += work

        finish = max(input_complete, start + work + extra_busy)
        blocking = node.node_id in merged or not bridged and (
            cost.blocking or isinstance(node, SplitNode) and node.strategy == "general"
        )
        available = finish if blocking else start + cost.startup_seconds

        fifo_drain = sum(out_lines) * _EMIT_SECONDS_PER_LINE
        emit_duration = fifo_drain if blocking else max(finish - start, fifo_drain)

        node_timings[node.node_id] = NodeTiming(
            node_id=node.node_id,
            label=node.label(),
            start=start,
            available=available,
            finish=finish,
            work=work,
            input_lines=total_in,
            output_lines=sum(out_lines),
        )

        for edge_id, lines in zip(node.outputs, out_lines):
            edge_lines[edge_id] = lines
            edge_available[edge_id] = available
            edge_finish[edge_id] = finish
            edge_emit_duration[edge_id] = emit_duration

    critical_path = max(
        (timing.finish for timing in node_timings.values()), default=0.0
    )
    total = max(critical_path, total_work / max(machine.cores, 1))
    total += machine.spawn_seconds(process_count)
    total += machine.collect_seconds(decoded)
    if include_setup:
        total += machine.setup_seconds
    else:
        total += machine.sequential_setup_seconds

    return SimulationResult(
        total_seconds=total,
        critical_path_seconds=critical_path,
        work_seconds=total_work,
        process_count=process_count,
        node_timings=node_timings,
        edge_lines=edge_lines,
    )


def simulate_script_graphs(
    graphs: Iterable[DataflowGraph],
    input_lines: Dict[str, int],
    machine: Optional[MachineModel] = None,
    cost_model: Optional[CostModel] = None,
    include_setup: bool = False,
) -> SimulationResult:
    """Simulate a script made of several regions executed back to back."""
    machine = machine or MachineModel.paper_testbed()
    total = 0.0
    critical = 0.0
    work = 0.0
    processes = 0
    merged_edges: Dict[int, int] = {}
    carried_lines = dict(input_lines)
    first = True
    for graph in graphs:
        result = simulate_graph(
            graph,
            carried_lines,
            machine=machine,
            cost_model=cost_model,
            include_setup=include_setup and first,
        )
        first = False
        total += result.total_seconds
        critical += result.critical_path_seconds
        work += result.work_seconds
        processes += result.process_count
        merged_edges.update(result.edge_lines)
        # Files written by one region are read by later regions.
        for edge in graph.output_edges():
            if edge.kind is EdgeKind.FILE and edge.name:
                carried_lines[edge.name] = result.edge_lines.get(edge.edge_id, 0)
    return SimulationResult(
        total_seconds=total,
        critical_path_seconds=critical,
        work_seconds=work,
        process_count=processes,
        edge_lines=merged_edges,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _combine_inputs(
    graph: DataflowGraph,
    node: DFGNode,
    edge_available: Dict[int, float],
    edge_finish: Dict[int, float],
    edge_emit_duration: Dict[int, float],
    bridged: bool = False,
):
    """Return (start, input_complete, extra_busy) for a node.

    ``extra_busy`` is additional busy time charged to the node itself: when
    its input branches are not eagerly buffered, the node's reading
    interleaves with each producer's (serialized) emission, so the producers'
    emission durations add to the node's own processing instead of
    overlapping with it.
    """
    if not node.inputs:
        return 0.0, 0.0, 0.0

    availables = [edge_available.get(edge_id, 0.0) for edge_id in node.inputs]
    finishes = [edge_finish.get(edge_id, 0.0) for edge_id in node.inputs]

    if (
        len(node.inputs) == 1
        or bridged  # a gathered cat's branches are collected independently
        or not isinstance(node, (CatNode, AggregatorNode, CommandNode))
    ):
        return min(availables), max(finishes), 0.0

    # Multi-input combiner: the branch behaviour depends on relays.
    modes = []
    for edge_id in node.inputs:
        edge = graph.edge(edge_id)
        producer = graph.node(edge.source) if edge.source is not None else None
        if isinstance(producer, RelayNode):
            modes.append("blocking" if producer.blocking else "eager")
        else:
            modes.append("lazy")

    if all(mode == "eager" for mode in modes):
        return min(availables), max(finishes), 0.0
    if all(mode == "blocking" for mode in modes):
        complete = max(finishes)
        return complete, complete, 0.0
    # At least one lazily-read branch: its emission serializes with the
    # combiner's own processing (§5.2 laziness pathology, Fig. 6).
    emissions = [
        edge_emit_duration.get(edge_id, 0.0)
        for edge_id, mode in zip(node.inputs, modes)
        if mode == "lazy"
    ]
    serialized = availables[0] + sum(emissions)
    return availables[0], max(max(finishes), serialized), sum(emissions)


def _output_lines(node: DFGNode, cost, total_in: int, in_lines: List[int]) -> List[int]:
    """Lines carried by each output edge of ``node``."""
    fan_out = max(len(node.outputs), 1)
    if isinstance(node, SplitNode):
        base, remainder = divmod(total_in, fan_out)
        return [base + (1 if index < remainder else 0) for index in range(fan_out)]
    if isinstance(node, (CatNode, RelayNode)):
        return [total_in] * fan_out
    produced = cost.output_lines(total_in)
    return [produced] * fan_out
