"""In-process evaluation of dataflow graphs.

The executor computes the streams carried by every edge of a DFG, in
topological order, using the pure-Python command implementations.  It is the
oracle behind the correctness claims: for every benchmark, the optimized
graph must produce exactly the same graph outputs as the unoptimized graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.annotations.classes import ParallelizabilityClass
from repro.commands import CommandRegistry, standard_registry
from repro.commands.base import BlockKernel, BlockMap, BlockStream, CommandError, Stream
from repro.dfg.edges import Edge, EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import (
    AggregatorNode,
    CatNode,
    CommandNode,
    DFGNode,
    FusedStage,
    RelayNode,
    SplitNode,
)
from repro.runtime.aggregators import BLOCK_AGGREGATORS, apply_aggregator
from repro.runtime.split import split_block, split_stream
from repro.runtime.streams import VirtualFileSystem


class ExecutionError(RuntimeError):
    """Raised when a graph cannot be executed."""


def evaluate_node(node: DFGNode, inputs: List[Stream], registry: CommandRegistry) -> List[Stream]:
    """Evaluate one node over its input streams.

    Returns one stream per output edge (at least one for nodes without
    outputs, whose stream the caller discards).  Streams are read-only once
    handed over, so a multi-output command node hands every edge the same
    list, and a relay hands on its input.

    This is the single node-semantics kernel shared by the in-process
    executor and the parallel engine's worker processes.
    """
    if isinstance(node, (CommandNode, FusedStage)):
        if isinstance(node, CommandNode):
            output = registry.run(node.name, node.arguments, inputs)
        else:
            # The composition of the members: each one's output feeds the next.
            output = inputs[0] if inputs else []
            for member in node.nodes:
                output = registry.run(member.name, member.arguments, [output])
        return [output] * max(1, len(node.outputs))
    if isinstance(node, AggregatorNode):
        output = apply_aggregator(node.aggregator, inputs, node.command_arguments)
        return [output]
    if isinstance(node, CatNode):
        combined: Stream = []
        for stream in inputs:
            combined.extend(stream)
        return [combined]
    if isinstance(node, SplitNode):
        if len(inputs) != 1:
            raise ExecutionError("split nodes take exactly one input")
        return split_stream(inputs[0], max(1, len(node.outputs)), strategy=node.strategy)
    if isinstance(node, RelayNode):
        if len(inputs) != 1:
            raise ExecutionError("relay nodes take exactly one input")
        # Eager or blocking only changes *when* bytes move (Fig. 6); over
        # whole in-memory streams a relay is the identity.
        return [inputs[0]]
    raise ExecutionError(f"cannot execute node of kind {node.kind!r}")


def block_kernel(node: DFGNode, registry: CommandRegistry) -> Optional[BlockKernel]:
    """The node's bytes kernel, or None when evaluating it needs ``str`` lines.

    A kernel maps the input streams, each an iterable of line blocks, to the
    produced streams — one for a command or aggregator (the caller
    replicates it over output edges as :func:`evaluate_node` does),
    ``len(outputs)`` for a split.  It is looked up on the registry's
    implementation object, so a replacement registered without ``block``
    takes the ``str`` path by itself; a fused stage has one only when every
    member does, and adjacent stateless members map each block as one.
    """
    if isinstance(node, FusedStage):
        kernels = [block_kernel(member, registry) for member in node.nodes]
        if not all(kernels):
            return None
        stages = kernels[:1]
        for kernel in kernels[1:]:
            if isinstance(kernel, BlockMap) and isinstance(stages[-1], BlockMap):
                stages[-1] = stages[-1].then(kernel)
            else:
                stages.append(kernel)

        def fused(streams: List[BlockStream]) -> List[BlockStream]:
            for kernel in stages:
                streams = kernel(streams)
            return streams

        return fused
    if isinstance(node, CommandNode):
        factory = registry.lookup(node.name).block
        try:
            return factory(list(node.arguments)) if factory else None
        except CommandError:
            return None  # arguments the ``str`` face rejects too, where errors are reported
    if isinstance(node, AggregatorNode):
        factory = BLOCK_AGGREGATORS.get(node.aggregator)
        return factory(list(node.command_arguments)) if factory else None
    if isinstance(node, SplitNode) and len(node.inputs) == 1:
        return split_block(max(1, len(node.outputs)))
    return None


def node_streams_statelessly(node: DFGNode) -> bool:
    """True when the node may be evaluated over line batches incrementally.

    This is the same property the parallelization transformation relies on:
    a *stateless* command ``f`` satisfies ``f(concat(xs)) == concat(map(f,
    xs))`` for any line-granular partition of its input, so evaluating it one
    batch at a time and concatenating the outputs is bit-identical to
    evaluating it over the whole materialized stream.  The gate reuses the
    annotation classification (Table 1) rather than guessing from the
    command name, and is restricted to the single-data-input shape where the
    batch order is unambiguous.

    The parallel engine's workers use this to process stateless commands
    chunk-by-chunk instead of list-at-once, which is what keeps the hot
    path's memory bounded for larger-than-RAM streams.
    """
    if isinstance(node, FusedStage):
        # A chain streams when every member does; one closed by a pure tail
        # needs its whole input.
        return (
            len(node.inputs) == 1
            and node.parallelizability() is ParallelizabilityClass.STATELESS
        )
    return (
        isinstance(node, CommandNode)
        and node.parallelizability_class is ParallelizabilityClass.STATELESS
        and len(node.data_inputs) == 1
        and not node.config_inputs
    )


@dataclass
class ExecutionEnvironment:
    """Everything a graph execution reads and writes."""

    filesystem: VirtualFileSystem = field(default_factory=VirtualFileSystem)
    stdin: Stream = field(default_factory=list)
    registry: CommandRegistry = field(default_factory=standard_registry)

    def copy(self) -> "ExecutionEnvironment":
        return ExecutionEnvironment(
            filesystem=self.filesystem.copy(),
            stdin=list(self.stdin),
            registry=self.registry,
        )


@dataclass
class ExecutionResult:
    """Output of one graph execution."""

    stdout: Stream = field(default_factory=list)
    files: Dict[str, Stream] = field(default_factory=dict)
    edge_values: Dict[int, Stream] = field(default_factory=dict)

    def output_of(self, name: str) -> Stream:
        """Stream written to the named output file."""
        return self.files.get(name, [])


class DFGExecutor:
    """Evaluates dataflow graphs over in-memory streams."""

    def __init__(self, environment: Optional[ExecutionEnvironment] = None) -> None:
        self.environment = environment or ExecutionEnvironment()

    # ------------------------------------------------------------------

    def execute(self, graph: DataflowGraph) -> ExecutionResult:
        """Execute ``graph`` and return its outputs.

        The environment's virtual filesystem is updated with any files the
        graph writes, so sequences of graphs (e.g. the regions of a larger
        script) can be executed back to back.
        """
        graph.validate()
        edge_values: Dict[int, Stream] = {}
        result = ExecutionResult(edge_values=edge_values)

        for node in graph.topological_order():
            inputs = [self._edge_value(graph.edge(edge_id), edge_values) for edge_id in node.inputs]
            outputs = self._run_node(node, inputs)
            if len(outputs) != len(node.outputs):
                raise ExecutionError(
                    f"node {node.label()} produced {len(outputs)} streams for "
                    f"{len(node.outputs)} output edges"
                )
            for edge_id, stream in zip(node.outputs, outputs):
                edge_values[edge_id] = stream

        for edge in graph.output_edges():
            stream = edge_values.get(edge.edge_id, self._edge_value(edge, edge_values))
            self._deliver_output(edge, stream, result)
        return result

    # ------------------------------------------------------------------

    def _edge_value(self, edge: Edge, edge_values: Dict[int, Stream]) -> Stream:
        if edge.edge_id in edge_values:
            return edge_values[edge.edge_id]
        if edge.source is not None:
            raise ExecutionError(f"edge {edge.edge_id} read before being produced")
        return resolve_graph_input(edge, self.environment)

    def _run_node(self, node: DFGNode, inputs: List[Stream]) -> List[Stream]:
        return evaluate_node(node, inputs, self.environment.registry)

    def _deliver_output(self, edge: Edge, stream: Stream, result: ExecutionResult) -> None:
        deliver_output(edge, stream, result, self.environment.filesystem)


def resolve_graph_input(edge: Edge, environment: ExecutionEnvironment) -> Stream:
    """Materialize a graph-input edge (stdin or an input file) from the environment.

    Shared by every backend that resolves inputs up front (the in-process
    executor, the parallel scheduler, the cluster coordinator).
    """
    if edge.kind is EdgeKind.STDIN:
        return list(environment.stdin)
    if edge.kind is EdgeKind.FILE:
        try:
            return environment.filesystem.read(edge.name or "")
        except FileNotFoundError as exc:
            raise ExecutionError(str(exc)) from exc
    # A dangling pipe input (should not occur in valid graphs).
    return []


def deliver_output(
    edge: Edge, stream: Stream, result: ExecutionResult, filesystem: VirtualFileSystem
) -> None:
    """Route one graph-output stream to stdout or the filesystem.

    Shared by the in-process executor and the parallel engine so that every
    backend delivers outputs with identical semantics.  The stream is handed
    over, not copied: the first stdout stream becomes ``result.stdout`` and a
    written file holds the list it was given, which ``result.files`` shares
    with the filesystem.
    """
    if edge.kind is EdgeKind.STDIN:
        # A graph whose only edge is stdin (degenerate); nothing to do.
        return
    if edge.kind is EdgeKind.FILE:
        if edge.append:
            filesystem.append(edge.name or "", stream)
        else:
            filesystem.write(edge.name or "", stream)
        result.files[edge.name or ""] = filesystem.read(edge.name or "")
        return
    # Never extended in place: the list may be an input or a file's.
    result.stdout = result.stdout + stream if result.stdout else stream
