"""The node-parallelization transformation T (§4.2).

Given a node ``v`` in the stateless or parallelizable-pure class whose single
data input is produced by a concatenation of ``n`` streams, T replaces ``v``
with ``n`` copies — one per stream — and commutes the concatenation after
them.  For stateless nodes the combined output is a plain concatenation; for
pure nodes it is the command's aggregator (e.g. ``sort -m``), arranged as a
binary merge tree.
"""

from __future__ import annotations

from typing import List, Optional

from repro.annotations.classes import ParallelizabilityClass
from repro.dfg.edges import EdgeKind
from repro.dfg.elision import is_plain_cat
from repro.dfg.graph import DataflowGraph, GraphError
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, DFGNode


#: Default aggregator used for pure commands that did not declare one.
DEFAULT_AGGREGATOR = "concat"


def is_parallelizable_node(node: DFGNode) -> bool:
    """True for command nodes in the stateless or parallelizable-pure class."""
    if not isinstance(node, CommandNode):
        return False
    return node.parallelizability().is_data_parallelizable


def preceding_concatenation(graph: DataflowGraph, node: CommandNode) -> Optional[DFGNode]:
    """Return the concatenation node feeding ``node``'s single data input.

    A concatenation is either an inserted :class:`CatNode` or a plain ``cat``
    command without flags.  Returns None when the input is not produced by a
    concatenation of two or more streams.
    """
    data_inputs = node.data_inputs
    if len(data_inputs) != 1:
        return None
    edge = graph.edge(data_inputs[0])
    if edge.source is None:
        return None
    producer = graph.node(edge.source)
    if isinstance(producer, CatNode) and len(producer.inputs) >= 2:
        return producer
    if is_plain_cat(producer) and len(producer.data_inputs) >= 2:
        return producer
    return None


def parallelize_node(
    graph: DataflowGraph,
    node: CommandNode,
    concatenation: Optional[DFGNode] = None,
    fan_in: int = 2,
    max_copies: Optional[int] = None,
) -> List[CommandNode]:
    """Apply T to ``node``; returns the parallel copies (empty when skipped).

    ``concatenation`` must be the node returned by
    :func:`preceding_concatenation`; when omitted it is recomputed.  ``fan_in``
    controls the shape of the pure-command aggregation tree (2 = binary tree,
    larger values make flatter trees; ``0`` or a value >= the copy count makes
    a single flat aggregator).  ``max_copies`` caps the parallelism width:
    when the concatenation joins more streams than that, consecutive streams
    are grouped with small ``cat`` nodes first.
    """
    if not is_parallelizable_node(node):
        return []
    if concatenation is None:
        concatenation = preceding_concatenation(graph, node)
    if concatenation is None:
        return []

    input_edges = [graph.edge(edge_id) for edge_id in list(concatenation.inputs)]
    if len(input_edges) < 2:
        return []
    if max_copies is not None and max_copies >= 2 and len(input_edges) > max_copies:
        input_edges = _group_streams(graph, concatenation, input_edges, max_copies)

    output_edge_id = node.outputs[0] if node.outputs else None
    config_edges = [graph.edge(edge_id) for edge_id in node.config_inputs]

    # Detach the concatenation and the edge joining it to the node.
    joining_edge_id = node.data_inputs[0]
    graph.remove_edge(joining_edge_id)
    graph.remove_node(concatenation.node_id)

    # Create one copy of the node per incoming stream.
    copies: List[CommandNode] = []
    for edge in input_edges:
        copy = CommandNode(
            name=node.name,
            arguments=list(node.arguments),
            parallelizability_class=node.parallelizability_class,
            aggregator=node.aggregator,
            parallelized_copy=True,
        )
        graph.add_node(copy)
        edge.target = copy.node_id
        copy.inputs.append(edge.edge_id)
        for config_edge in config_edges:
            replica = graph.add_edge(kind=config_edge.kind, name=config_edge.name)
            graph.attach_input(copy, replica, configuration=True)
        copies.append(copy)

    # Build the combiner: a flat concatenation for stateless nodes, an
    # aggregation tree for pure nodes.
    copy_output_edges = []
    for copy in copies:
        edge = graph.add_edge(kind=EdgeKind.PIPE, source=copy.node_id)
        copy.outputs.append(edge.edge_id)
        copy_output_edges.append(edge)

    if node.parallelizability_class is ParallelizabilityClass.STATELESS:
        combiner = CatNode()
        graph.add_node(combiner)
        for edge in copy_output_edges:
            edge.target = combiner.node_id
            combiner.inputs.append(edge.edge_id)
        final_node: DFGNode = combiner
    else:
        final_node = _build_aggregation_tree(graph, node, copy_output_edges, fan_in)

    # Re-route the original output edge to come from the combiner.
    if output_edge_id is not None:
        output_edge = graph.edge(output_edge_id)
        output_edge.source = final_node.node_id
        final_node.outputs.append(output_edge_id)

    # Drop the original node and its configuration edges.
    for edge in config_edges:
        if edge.edge_id in graph.edges:
            graph.remove_edge(edge.edge_id)
    node.outputs = []
    graph.remove_node(node.node_id)
    return copies


def _group_streams(
    graph: DataflowGraph,
    concatenation: DFGNode,
    input_edges,
    max_copies: int,
):
    """Group the concatenation's inputs into at most ``max_copies`` streams.

    Consecutive streams are combined with small ``cat`` nodes so the copy
    count matches the requested parallelism width; order is preserved, which
    keeps the transformation semantics-preserving.
    """
    groups: List[List] = [[] for _ in range(max_copies)]
    base, remainder = divmod(len(input_edges), max_copies)
    index = 0
    for group_number in range(max_copies):
        size = base + (1 if group_number < remainder else 0)
        groups[group_number] = input_edges[index : index + size]
        index += size

    grouped_edges = []
    for group in groups:
        if not group:
            continue
        if len(group) == 1:
            grouped_edges.append(group[0])
            continue
        cat_node = CatNode()
        graph.add_node(cat_node)
        for edge in group:
            # Re-target the edge from the original concatenation to the group cat.
            edge.target = cat_node.node_id
            cat_node.inputs.append(edge.edge_id)
            concatenation.inputs = [e for e in concatenation.inputs if e != edge.edge_id]
        joining = graph.add_edge(kind=EdgeKind.PIPE, source=cat_node.node_id, target=concatenation.node_id)
        cat_node.outputs.append(joining.edge_id)
        concatenation.inputs.append(joining.edge_id)
        grouped_edges.append(joining)
    return grouped_edges


def _build_aggregation_tree(
    graph: DataflowGraph,
    node: CommandNode,
    stream_edges,
    fan_in: int,
) -> DFGNode:
    """Build a tree of aggregator nodes merging ``stream_edges``."""
    aggregator_name = node.aggregator or DEFAULT_AGGREGATOR
    level = reduce_stream_edges(
        graph, aggregator_name, node.name, node.arguments, list(stream_edges), fan_in
    )
    # The root consumes whatever remains (all streams when fan_in <= 1 or
    # already within the fan-in); the caller re-routes the real output to it.
    return make_aggregator(graph, aggregator_name, node.name, node.arguments, level)


def reduce_stream_edges(
    graph: DataflowGraph,
    aggregator_name: str,
    command_name: str,
    command_arguments,
    edges,
    fan_in: int,
):
    """Merge ``edges`` level-by-level until at most ``fan_in`` remain.

    Each level groups consecutive streams (order-preserving) into aggregators
    of the given fan-in, single leftovers passing through; the shared
    tree-shaping used both when lowering inline (``parallelize_node`` with
    ``fan_in``) and by the ``aggregation-lowering`` pass.  Returns the edges
    of the final level, each an unconsumed aggregator (or original) output.
    """
    level = list(edges)
    if fan_in <= 1:
        # 0/1 mean "no tree": grouping by <=1 could never shrink the level
        # (an infinite loop), so a flat merge is the only sensible reading.
        return level
    while len(level) > fan_in:
        next_level = []
        for start in range(0, len(level), fan_in):
            group = level[start : start + fan_in]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            aggregator = make_aggregator(
                graph, aggregator_name, command_name, command_arguments, group
            )
            out_edge = graph.add_edge(kind=EdgeKind.PIPE, source=aggregator.node_id)
            aggregator.outputs.append(out_edge.edge_id)
            next_level.append(out_edge)
        level = next_level
    return level


def make_aggregator(
    graph: DataflowGraph,
    aggregator_name: str,
    command_name: str,
    command_arguments,
    edges,
) -> AggregatorNode:
    """Create one aggregator node consuming ``edges`` (which must be free)."""
    aggregator = AggregatorNode(
        aggregator=aggregator_name,
        command_name=command_name,
        command_arguments=list(command_arguments),
    )
    graph.add_node(aggregator)
    for edge in edges:
        if edge.target is not None:
            raise GraphError(f"edge {edge.edge_id} already consumed")
        edge.target = aggregator.node_id
        aggregator.inputs.append(edge.edge_id)
    return aggregator
