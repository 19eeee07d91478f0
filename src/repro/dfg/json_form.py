"""The one JSON form of a dataflow graph, in which a plan crosses a process boundary.

A node or edge is its dataclass fields (a node's ``kind`` names its class), a
graph its nodes and edges in insertion order and its id counters: the copy
describes, emits and runs as the original, and re-serialises to the same
bytes.  Reading checks each field against its annotation and validates the
graph; bad input raises :class:`GraphError`, nothing else.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

from repro.annotations.classes import ParallelizabilityClass
from repro.dfg.edges import Edge, EdgeKind
from repro.dfg.graph import DataflowGraph, GraphError
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, FusedStage, RelayNode, SplitNode

_NODES = {cls.kind: cls for cls in (CommandNode, CatNode, SplitNode, RelayNode, FusedStage, AggregatorNode)}
_ENUMS = {"ParallelizabilityClass": ParallelizabilityClass, "EdgeKind": EdgeKind}
_SCALARS = {"int": int, "bool": bool, "str": str}


def _typed(value: Any, annotation: str) -> bool:
    if annotation.startswith("Optional["):
        return value is None or _typed(value, annotation[9:-1])
    if annotation.startswith("List["):
        return isinstance(value, list) and all(_typed(item, annotation[5:-1]) for item in value)
    if annotation in _ENUMS:
        return any(member.value == value for member in _ENUMS[annotation])
    return type(value) is _SCALARS.get(annotation, dict)  # dict: a fused stage's member


def node_to_json(item: Any) -> Dict[str, Any]:
    """The JSON form of one node (or edge)."""
    if type(item) not in (Edge, *_NODES.values()):
        raise GraphError(f"a {type(item).__name__} has no JSON form")
    payload = {}
    for spec in fields(item):
        value = getattr(item, spec.name)
        payload[spec.name] = (
            [node_to_json(member) for member in value] if spec.name == "nodes"
            else value.value if spec.type in _ENUMS
            else list(value) if isinstance(value, list) else value
        )
    return payload


def node_from_json(payload: Any, cls: Any = None) -> Any:
    """The node ``payload`` holds (``cls``: of that class, ``Edge`` for an edge)."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    cls = cls or (_NODES.get(kind) if isinstance(kind, str) else None)
    specs = fields(cls) if cls is not None else ()
    if not specs or not isinstance(payload, dict) or set(payload) != {spec.name for spec in specs}:
        raise GraphError(f"not a {getattr(cls, '__name__', 'node')}: {str(payload)[:80]}")
    if cls is not Edge and kind != cls.kind:
        raise GraphError(f"a {kind} node where a {cls.kind} node belongs")
    values = {}
    for spec in specs:
        value = payload[spec.name]
        if not _typed(value, spec.type):
            raise GraphError(f"{cls.__name__}.{spec.name} is not {spec.type}: {str(value)[:80]}")
        if spec.type in _ENUMS:
            value = _ENUMS[spec.type](value)
        elif spec.name == "nodes":
            value = [node_from_json(member, CommandNode) for member in value]
        elif isinstance(value, list):
            value = list(value)
        values[spec.name] = value
    return cls(**values)


def to_json(graph: DataflowGraph) -> Dict[str, Any]:
    """``graph`` as JSON-able data."""
    return {
        "nodes": [node_to_json(node) for node in graph.nodes.values()],
        "edges": [node_to_json(edge) for edge in graph.edges.values()],
        "next_ids": [graph._next_node_id, graph._next_edge_id],
    }


def from_json(payload: Any) -> DataflowGraph:
    """The validated graph ``payload`` holds; :class:`GraphError` on anything else."""
    if not (isinstance(payload, dict) and set(payload) == {"nodes", "edges", "next_ids"}
            and _typed(payload["next_ids"], "List[int]") and len(payload["next_ids"]) == 2
            and _typed(payload["nodes"], "List[dict]") and _typed(payload["edges"], "List[dict]")):
        raise GraphError(f"not a graph: {str(payload)[:80]}")
    graph = DataflowGraph()
    graph.nodes = {node.node_id: node for node in map(node_from_json, payload["nodes"])}
    graph.edges = {edge.edge_id: edge for edge in (node_from_json(item, Edge) for item in payload["edges"])}
    graph._next_node_id, graph._next_edge_id = payload["next_ids"]
    if (len(graph.nodes), len(graph.edges)) != (len(payload["nodes"]), len(payload["edges"])) or any(
            max(ids, default=-1) >= bound for ids, bound in zip((graph.nodes, graph.edges), payload["next_ids"])):
        raise GraphError("node and edge ids must be unique and below next_ids")
    graph.validate()
    return graph
