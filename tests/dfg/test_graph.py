"""Tests for the DFG container: structure, ordering, validation."""

import pytest

from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph, GraphError, count_processes
from repro.dfg.nodes import CatNode, CommandNode


def simple_chain():
    """in.txt -> grep -> sort -> stdout"""
    graph = DataflowGraph()
    grep = graph.add_node(CommandNode(name="grep", arguments=["foo"]))
    sort = graph.add_node(CommandNode(name="sort"))
    source = graph.add_edge(kind=EdgeKind.FILE, name="in.txt")
    graph.attach_input(grep, source)
    graph.connect(grep, sort)
    sink = graph.add_edge(kind=EdgeKind.STDOUT, name="stdout")
    graph.attach_output(sort, sink)
    return graph, grep, sort


def test_add_node_assigns_ids():
    graph = DataflowGraph()
    first = graph.add_node(CommandNode(name="a"))
    second = graph.add_node(CommandNode(name="b"))
    assert first.node_id != second.node_id
    assert len(graph) == 2


def test_connect_wires_both_endpoints():
    graph, grep, sort = simple_chain()
    edge = graph.edge(grep.outputs[0])
    assert edge.source == grep.node_id
    assert edge.target == sort.node_id
    assert graph.successors(grep) == [sort]
    assert graph.predecessors(sort) == [grep]


def test_input_and_output_edges():
    graph, grep, sort = simple_chain()
    assert [edge.name for edge in graph.input_edges()] == ["in.txt"]
    assert [edge.name for edge in graph.output_edges()] == ["stdout"]


def test_source_and_sink_nodes():
    graph, grep, sort = simple_chain()
    assert graph.source_nodes() == [grep]
    assert graph.sink_nodes() == [sort]


def test_topological_order():
    graph, grep, sort = simple_chain()
    order = [node.name for node in graph.topological_order()]
    assert order == ["grep", "sort"]


def test_cycle_detection():
    graph, grep, sort = simple_chain()
    # Introduce a back edge sort -> grep.
    graph.connect(sort, grep)
    with pytest.raises(GraphError):
        graph.topological_order()


def test_validate_accepts_well_formed_graph():
    graph, _, _ = simple_chain()
    graph.validate()


def test_validate_rejects_inconsistent_edge():
    graph, grep, sort = simple_chain()
    graph.edge(grep.outputs[0]).target = 999
    with pytest.raises(GraphError):
        graph.validate()


def test_attach_input_rejects_consumed_edge():
    graph, grep, sort = simple_chain()
    edge = graph.edge(grep.inputs[0])
    with pytest.raises(GraphError):
        graph.attach_input(sort, edge)


def test_remove_edge_detaches_endpoints():
    graph, grep, sort = simple_chain()
    edge_id = grep.outputs[0]
    graph.remove_edge(edge_id)
    assert edge_id not in graph.edges
    assert edge_id not in grep.outputs
    assert edge_id not in sort.inputs


def test_remove_node_detaches_edges():
    graph, grep, sort = simple_chain()
    graph.remove_node(sort.node_id)
    assert sort.node_id not in graph.nodes
    assert graph.edge(grep.outputs[0]).target is None


def test_describe_lists_nodes():
    graph, _, _ = simple_chain()
    text = graph.describe()
    assert "grep foo" in text and "sort" in text


def test_copy_is_deep():
    graph, grep, _ = simple_chain()
    clone = graph.copy()
    clone.nodes[grep.node_id].arguments.append("-v")
    assert graph.nodes[grep.node_id].arguments == ["foo"]


def test_count_processes():
    graph, _, _ = simple_chain()
    assert count_processes(graph) == 2


def test_nodes_of_kind():
    graph, _, _ = simple_chain()
    graph.add_node(CatNode())
    assert len(graph.nodes_of_kind("command")) == 2
    assert len(graph.nodes_of_kind("cat")) == 1
