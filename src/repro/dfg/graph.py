"""The dataflow graph container and its structural operations."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dfg.edges import Edge, EdgeKind
from repro.dfg.nodes import DFGNode


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class DataflowGraph:
    """A PaSh dataflow graph.

    The graph owns its nodes and edges and assigns their identifiers.  Each
    edge has at most one producer and one consumer; graph inputs are edges
    without a producer and graph outputs are edges without a consumer.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, DFGNode] = {}
        self.edges: Dict[int, Edge] = {}
        self._next_node_id = 0
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: DFGNode) -> DFGNode:
        """Insert ``node`` (assigning it a fresh id) and return it."""
        node.node_id = self._next_node_id
        self._next_node_id += 1
        self.nodes[node.node_id] = node
        return node

    def add_edge(
        self,
        kind: EdgeKind = EdgeKind.PIPE,
        name: Optional[str] = None,
        source: Optional[int] = None,
        target: Optional[int] = None,
    ) -> Edge:
        """Create a new edge."""
        edge = Edge(self._next_edge_id, kind=kind, name=name, source=source, target=target)
        self._next_edge_id += 1
        self.edges[edge.edge_id] = edge
        return edge

    def connect(self, source: DFGNode, target: DFGNode, kind: EdgeKind = EdgeKind.PIPE) -> Edge:
        """Create an edge from ``source`` to ``target`` and register it on both."""
        edge = self.add_edge(kind=kind, source=source.node_id, target=target.node_id)
        source.outputs.append(edge.edge_id)
        target.inputs.append(edge.edge_id)
        return edge

    def attach_input(self, node: DFGNode, edge: Edge, configuration: bool = False) -> None:
        """Route an existing edge into ``node`` as its next input."""
        if edge.target is not None:
            raise GraphError(f"edge {edge.edge_id} already has a consumer")
        edge.target = node.node_id
        node.inputs.append(edge.edge_id)
        if configuration and hasattr(node, "config_inputs"):
            node.config_inputs.append(edge.edge_id)

    def attach_output(self, node: DFGNode, edge: Edge) -> None:
        """Route ``node``'s next output into an existing edge."""
        if edge.source is not None:
            raise GraphError(f"edge {edge.edge_id} already has a producer")
        edge.source = node.node_id
        node.outputs.append(edge.edge_id)

    def remove_node(self, node_id: int) -> None:
        """Remove a node, detaching (but keeping) its edges."""
        node = self.nodes.pop(node_id)
        for edge_id in node.inputs:
            self.edges[edge_id].target = None
        for edge_id in node.outputs:
            self.edges[edge_id].source = None

    def remove_edge(self, edge_id: int) -> None:
        """Remove an edge and detach it from its endpoints."""
        edge = self.edges.pop(edge_id)
        if edge.source is not None and edge.source in self.nodes:
            node = self.nodes[edge.source]
            node.outputs = [e for e in node.outputs if e != edge_id]
        if edge.target is not None and edge.target in self.nodes:
            node = self.nodes[edge.target]
            node.inputs = [e for e in node.inputs if e != edge_id]
            if hasattr(node, "config_inputs"):
                node.config_inputs = [e for e in node.config_inputs if e != edge_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> DFGNode:
        return self.nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        return self.edges[edge_id]

    def input_edges(self) -> List[Edge]:
        """Edges without a producer, in id order."""
        return [edge for edge in self._sorted_edges() if edge.is_graph_input]

    def output_edges(self) -> List[Edge]:
        """Edges without a consumer, in id order."""
        return [edge for edge in self._sorted_edges() if edge.is_graph_output]

    def _sorted_edges(self) -> List[Edge]:
        return [self.edges[edge_id] for edge_id in sorted(self.edges)]

    def predecessors(self, node: DFGNode) -> List[DFGNode]:
        """Producer nodes of ``node``'s inputs, in input order."""
        result = []
        for edge_id in node.inputs:
            edge = self.edges[edge_id]
            if edge.source is not None:
                result.append(self.nodes[edge.source])
        return result

    def successors(self, node: DFGNode) -> List[DFGNode]:
        """Consumer nodes of ``node``'s outputs, in output order."""
        result = []
        for edge_id in node.outputs:
            edge = self.edges[edge_id]
            if edge.target is not None:
                result.append(self.nodes[edge.target])
        return result

    def source_nodes(self) -> List[DFGNode]:
        """Nodes all of whose inputs are graph inputs."""
        return [
            node
            for node in self.nodes.values()
            if all(self.edges[e].is_graph_input for e in node.inputs)
        ]

    def sink_nodes(self) -> List[DFGNode]:
        """Nodes all of whose outputs are graph outputs."""
        return [
            node
            for node in self.nodes.values()
            if all(self.edges[e].is_graph_output for e in node.outputs)
        ]

    def __len__(self) -> int:
        return len(self.nodes)

    def nodes_of_kind(self, kind: str) -> List[DFGNode]:
        """All nodes whose ``kind`` attribute matches."""
        return [node for node in self.nodes.values() if node.kind == kind]

    # ------------------------------------------------------------------
    # Ordering and validation
    # ------------------------------------------------------------------

    def topological_order(self) -> List[DFGNode]:
        """Nodes in a topological order; raises :class:`GraphError` on cycles."""
        in_degree: Dict[int, int] = {}
        for node in self.nodes.values():
            in_degree[node.node_id] = sum(
                1 for edge_id in node.inputs if self.edges[edge_id].source is not None
            )
        ready = sorted(node_id for node_id, degree in in_degree.items() if degree == 0)
        order: List[DFGNode] = []
        while ready:
            node_id = ready.pop(0)
            node = self.nodes[node_id]
            order.append(node)
            for edge_id in node.outputs:
                edge = self.edges[edge_id]
                if edge.target is None:
                    continue
                in_degree[edge.target] -= 1
                if in_degree[edge.target] == 0:
                    ready.append(edge.target)
            ready.sort()
        if len(order) != len(self.nodes):
            raise GraphError("dataflow graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure."""
        for node in self.nodes.values():
            for edge_id in node.inputs:
                edge = self.edges.get(edge_id)
                if edge is None:
                    raise GraphError(f"node {node.node_id} references missing edge {edge_id}")
                if edge.target != node.node_id:
                    raise GraphError(
                        f"edge {edge_id} target is {edge.target}, expected {node.node_id}"
                    )
            for edge_id in node.outputs:
                edge = self.edges.get(edge_id)
                if edge is None:
                    raise GraphError(f"node {node.node_id} references missing edge {edge_id}")
                if edge.source != node.node_id:
                    raise GraphError(
                        f"edge {edge_id} source is {edge.source}, expected {node.node_id}"
                    )
        for edge in self.edges.values():
            if edge.source is not None:
                source = self.nodes.get(edge.source)
                if source is None or edge.edge_id not in source.outputs:
                    raise GraphError(f"edge {edge.edge_id} has a dangling producer")
            if edge.target is not None:
                target = self.nodes.get(edge.target)
                if target is None or edge.edge_id not in target.inputs:
                    raise GraphError(f"edge {edge.edge_id} has a dangling consumer")
        self.topological_order()

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line textual dump of the graph (stable across runs)."""
        lines = [f"DataflowGraph: {len(self.nodes)} nodes, {len(self.edges)} edges"]
        for node in (self.nodes[node_id] for node_id in sorted(self.nodes)):
            inputs = ", ".join(self.edges[e].display_name() for e in node.inputs)
            outputs = ", ".join(self.edges[e].display_name() for e in node.outputs)
            lines.append(f"  [{node.node_id}] {node.label()}  in=({inputs}) out=({outputs})")
        return "\n".join(lines)

    def copy(self) -> "DataflowGraph":
        """Deep copy of the graph (used before destructive transformations)."""
        import copy as _copy

        return _copy.deepcopy(self)


def count_processes(graph: DataflowGraph) -> int:
    """Number of runtime processes the graph instantiates (Table 2 "nodes")."""
    return len(graph.nodes)
