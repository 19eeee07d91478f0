"""Tests for the optimization pass driver and its configurations."""

from repro.api import PashConfig, SplitMode, optimize
from repro.dfg.builder import DFGBuilder
from repro.dfg.nodes import AggregatorNode, CommandNode, RelayNode, SplitNode


def build(script):
    return DFGBuilder().build_from_script(script)


def names(graph):
    return [node.name for node in graph.nodes.values() if isinstance(node, CommandNode)]


def test_width_one_does_not_parallelize():
    graph = build("cat a.txt b.txt | grep x")
    report = optimize(graph, PashConfig(width=1, fuse_stages=False))
    assert report.parallelized_count == 0


def test_existing_concatenation_is_commuted():
    graph = build("cat a.txt b.txt c.txt d.txt | grep x > out.txt")
    report = optimize(graph, PashConfig.parallel_only(4, fuse_stages=False))
    assert report.parallelized_count == 1
    assert names(graph).count("grep") == 4
    assert names(graph).count("cat") == 0
    graph.validate()


def test_split_enables_single_input_parallelization():
    graph = build("cat big.txt | grep x > out.txt")
    report = optimize(graph, PashConfig.paper_default(4, fuse_stages=False))
    assert report.inserted_splits >= 1
    assert names(graph).count("grep") == 4
    assert len(graph.nodes_of_kind("split")) >= 1
    graph.validate()


def test_no_split_single_input_is_left_alone():
    graph = build("cat big.txt | grep x > out.txt")
    report = optimize(graph, PashConfig.parallel_only(4, fuse_stages=False))
    assert names(graph).count("grep") == 1
    assert report.parallelized_count == 0


def test_consecutive_stages_share_the_parallel_structure():
    graph = build("cat a b c d | grep x | tr A-Z a-z | sort > out.txt")
    optimize(graph, PashConfig.parallel_only(4, fuse_stages=False))
    node_names = names(graph)
    assert node_names.count("grep") == 4
    assert node_names.count("tr") == 4
    assert node_names.count("sort") == 4
    aggregators = [n for n in graph.nodes.values() if isinstance(n, AggregatorNode)]
    assert len(aggregators) == 3
    graph.validate()


def test_width_caps_copies_when_more_chunks_than_width():
    graph = build("cat a b c d e f g h | grep x > out.txt")
    optimize(graph, PashConfig.parallel_only(2, fuse_stages=False))
    assert names(graph).count("grep") == 2
    graph.validate()


def test_eager_modes_control_relays():
    for mode, expect_relays, expect_blocking in (
        (PashConfig.paper_default(4, fuse_stages=False), True, False),
        (PashConfig.blocking_eager(4, fuse_stages=False), True, True),
        (PashConfig.no_eager(4, fuse_stages=False), False, False),
    ):
        graph = build("cat a b c d | sort > out.txt")
        optimize(graph, mode)
        relays = [n for n in graph.nodes.values() if isinstance(n, RelayNode)]
        assert bool(relays) == expect_relays
        if relays:
            assert all(relay.blocking == expect_blocking for relay in relays)


def test_report_contents():
    graph = build("cat a b | grep x | sort > out.txt")
    report = optimize(graph, PashConfig.paper_default(2, fuse_stages=False))
    assert "grep x" in report.parallelized_commands
    assert report.inserted_relays > 0
    assert report.compile_time_seconds >= 0.0


def test_aggregation_fan_in_controls_tree_shape():
    flat = build("cat a b c d e f g h | sort > out.txt")
    optimize(flat, PashConfig(width=8, aggregation_fan_in=0, split=SplitMode.NONE, fuse_stages=False))
    flat_aggs = [n for n in flat.nodes.values() if isinstance(n, AggregatorNode)]
    assert len(flat_aggs) == 1

    tree = build("cat a b c d e f g h | sort > out.txt")
    optimize(tree, PashConfig(width=8, aggregation_fan_in=2, split=SplitMode.NONE, fuse_stages=False))
    tree_aggs = [n for n in tree.nodes.values() if isinstance(n, AggregatorNode)]
    assert len(tree_aggs) == 7


def test_positional_tail_is_not_parallelized():
    graph = build("tail -n+2 words.txt | sort > out.txt")
    optimize(graph, PashConfig.paper_default(4, fuse_stages=False))
    assert names(graph).count("tail") == 1


def test_non_parallelizable_commands_survive_untouched():
    graph = build("cat a b | sha1sum")
    report = optimize(graph, PashConfig.paper_default(4, fuse_stages=False))
    assert names(graph).count("sha1sum") == 1
    assert "sha1sum" not in " ".join(report.parallelized_commands)


def test_table2_sort_node_count_at_16():
    """The paper reports 77 processes for the Sort script at width 16."""
    chunks = " ".join(f"in{i}.txt" for i in range(16))
    graph = build(f"cat {chunks} | tr A-Z a-z | sort > out.txt")
    optimize(graph, PashConfig.paper_default(16, fuse_stages=False))
    assert len(graph.nodes) == 77


def test_split_strategy_propagated_to_split_nodes():
    graph = build("cat big.txt | grep x > out.txt")
    optimize(graph, PashConfig.blocking_split(4, fuse_stages=False))
    split = graph.nodes_of_kind("split")[0]
    assert isinstance(split, SplitNode)
    assert split.strategy == "input-aware"
