"""Which nodes of a graph need no process, because their stream is at rest.

A node gets a process only when something has to *move* bytes.  Three shapes
do not: a non-blocking **relay** (its two edges are one stream), a **split**
of a seekable file (byte ranges of it) and a **cat or aggregator** into a
graph output (its branches, collected and combined where they end).  A
fourth gets no process of its own: one **inline lane**, a command whose
inputs are at rest and whose outputs are collected, crosses no pipe, so the
coordinator runs it while the other processes run theirs.  Chosen by what
the edges *are*, never by a setting; docs/ARCHITECTURE.md "What gets a
process" has the argument.  The scheduler executes this plan, the simulator
and the planner bill it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Optional, Union

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


def is_plain_cat(node: DFGNode) -> bool:
    """A flag-less ``cat`` command: the concatenation of its input edges."""
    return (
        isinstance(node, CommandNode)
        and node.name == "cat"
        and not node.arguments
        and not node.config_inputs
    )


@dataclass
class Elisions:
    """The nodes that get no process, and how their streams are bridged."""

    skipped: Dict[int, DFGNode] = field(default_factory=dict)
    #: A bridged one-in one-out node's output edge -> its input edge, and back.
    heads: Dict[int, int] = field(default_factory=dict)
    tails: Dict[int, int] = field(default_factory=dict)
    #: A ranged split's node id -> the graph-input file edge it partitions.
    ranged: Dict[int, int] = field(default_factory=dict)
    #: A graph-output edge -> the gathered cat or aggregator behind it.
    gathers: Dict[int, Union[CatNode, AggregatorNode]] = field(default_factory=dict)
    #: The node the coordinator runs itself (None: every node has a process).
    inline: Optional[int] = None

    def head(self, edge_id: int) -> int:
        """Where a consumer's stream really comes from."""
        while edge_id in self.heads:
            edge_id = self.heads[edge_id]
        return edge_id

    def tail(self, edge_id: int) -> int:
        """Where a producer's stream really goes."""
        while edge_id in self.tails:
            edge_id = self.tails[edge_id]
        return edge_id

    def bridge(self, node: DFGNode) -> None:
        self.skipped[node.node_id] = node
        self.heads[node.outputs[0]] = node.inputs[0]
        self.tails[node.inputs[0]] = node.outputs[0]


def plan_elisions(graph: DataflowGraph, at_rest: Container[int]) -> Elisions:
    """Decide which of ``graph``'s nodes get no process.

    ``at_rest`` holds the ids of the graph-input edges that are seekable
    files, the ones a consumer can read a byte range of.
    """
    plan = Elisions()
    kinds = (RelayNode, SplitNode, CatNode, AggregatorNode)
    nodes = [node for _, node in sorted(graph.nodes.items()) if isinstance(node, kinds)]

    def producer(edge_id: int) -> Optional[int]:
        source = graph.edge(plan.head(edge_id)).source
        return None if source in plan.skipped else source

    def consumer(edge_id: int) -> Optional[int]:
        target = graph.edge(plan.tail(edge_id)).target
        return None if target in plan.skipped else target

    for node in nodes:
        # A non-blocking identity relay — unless its stream would be left
        # with neither a producing nor a consuming process (graph input
        # straight to graph output): something must move the bytes.
        if (
            isinstance(node, RelayNode)
            and not node.blocking
            and len(node.inputs) == 1 == len(node.outputs)
            and (producer(node.inputs[0]) is not None or consumer(node.outputs[0]) is not None)
        ):
            plan.bridge(node)
    for node in nodes:
        # A split whose consumers all run and whose input leads back, through
        # bridged relays and at most one plain single-file ``cat``, to a file
        # at rest: each consumer reads its own byte range.
        if not isinstance(node, SplitNode) or len(node.inputs) != 1:
            continue
        if any(consumer(edge_id) is None for edge_id in node.outputs):
            continue
        head = graph.edge(plan.head(node.inputs[0]))
        cat = None if head.source is None else graph.nodes[head.source]
        if cat is not None:
            if not is_plain_cat(cat) or len(cat.inputs) != 1 or len(cat.outputs) != 1:
                continue
            head = graph.edge(plan.head(cat.inputs[0]))
        if head.source is None and head.edge_id in at_rest:
            if cat is not None:
                plan.bridge(cat)
            plan.skipped[node.node_id] = node
            plan.ranged[node.node_id] = head.edge_id
    for node in nodes:
        # A cat or aggregator whose output leads, through bridged relays, to
        # a graph output and whose inputs all have producing processes: every
        # producer collects its branch and the driver combines the branches.
        if not isinstance(node, (CatNode, AggregatorNode)):
            continue
        if not node.inputs or len(node.outputs) != 1:
            continue
        out = graph.edge(plan.tail(node.outputs[0]))
        if out.target is None and all(producer(edge_id) is not None for edge_id in node.inputs):
            plan.skipped[node.node_id] = node
            plan.gathers[out.edge_id] = node
    # A command (or fused stage) that reads only graph inputs and ranged
    # parts and whose every output is collected never waits on a process:
    # the coordinator runs the last such lane itself, as long as another
    # node still has a process to overlap with.
    lanes = [
        node
        for node_id, node in graph.nodes.items()
        if node_id not in plan.skipped
        and isinstance(node, (CommandNode, FusedStage))
        and node.outputs
        and all(consumer(edge_id) is None for edge_id in node.outputs)
        and all(producer(edge_id) is None for edge_id in node.inputs)
    ]
    if lanes and len(graph.nodes) - len(plan.skipped) >= 2:
        if len(lanes) > 1:
            order = {node.node_id: index for index, node in enumerate(graph.topological_order())}
            lanes.sort(key=lambda node: order[node.node_id])
        plan.inline = lanes[-1].node_id
    return plan
