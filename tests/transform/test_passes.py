"""The pass manager: stable ordering, name-based ablations, registration."""

import pytest

from repro.api import Pash, PashConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.nodes import AggregatorNode, CommandNode, RelayNode, SplitNode
from repro.transform.passes import (
    DEFAULT_PIPELINE,
    GraphPass,
    PassManager,
    available_passes,
    build_pipeline,
    register_pass,
    unregister_pass,
)
from repro.transform.pipeline import OptimizationReport

EXPECTED_ORDER = [
    "split-insertion",
    "parallelize",
    "aggregation-lowering",
    "eager-relays",
    "fuse-stages",
]


def build(script):
    return DFGBuilder().build_from_script(script)


def compile_text(script, config):
    """Emitted text with a pinned FIFO prefix, so outputs are comparable."""
    return Pash(config.replace(fifo_prefix="fifo")).compile(script).text


def graph_shape(graph):
    """A structural fingerprint: node kinds and names in topological order."""
    return [
        (type(node).__name__, getattr(node, "name", getattr(node, "aggregator", "")))
        for node in graph.topological_order()
    ]


def test_default_pipeline_order_is_stable():
    # The order is a property of the pipeline, not of any config: passes
    # self-gate on the config they receive at run time.
    assert build_pipeline().names() == EXPECTED_ORDER
    assert build_pipeline().names() == build_pipeline().names()
    assert [cls.name for cls in DEFAULT_PIPELINE] == EXPECTED_ORDER
    assert available_passes()[: len(EXPECTED_ORDER)] == EXPECTED_ORDER


def test_report_carries_per_pass_timings_in_pipeline_order():
    graph = build("cat a b | grep x | sort > out.txt")
    report = build_pipeline().run(graph, PashConfig.paper_default(2, fuse_stages=False))
    assert list(report.pass_seconds) == EXPECTED_ORDER
    assert all(seconds >= 0.0 for seconds in report.pass_seconds.values())
    assert report.compile_time_seconds >= sum(report.pass_seconds.values()) * 0.5


SCRIPTS = [
    "cat a b c d | grep x | sort > out.txt",
    "cat big.txt | grep x | tr A-Z a-z | sort | uniq -c > out.txt",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_disabling_eager_relays_reproduces_no_eager_bit_for_bit(script):
    # no_eager also disables the split; disable both passes by name.
    by_name = PashConfig.paper_default(4, disabled_passes=("eager-relays", "split-insertion"))
    by_enum = PashConfig.no_eager(4)
    assert compile_text(script, by_name) == compile_text(script, by_enum)


@pytest.mark.parametrize("script", SCRIPTS)
def test_disabling_split_insertion_reproduces_parallel_only_bit_for_bit(script):
    by_name = PashConfig.paper_default(4, disabled_passes=("split-insertion",))
    by_enum = PashConfig.parallel_only(4)
    assert compile_text(script, by_name) == compile_text(script, by_enum)
    # ... and structurally: the optimized graphs match node for node.
    graphs_by_name = Pash(by_name).compile(script).optimized_graphs
    graphs_by_enum = Pash(by_enum).compile(script).optimized_graphs
    for left, right in zip(graphs_by_name, graphs_by_enum):
        assert graph_shape(left) == graph_shape(right)


def test_disabling_parallelize_leaves_the_graph_sequential():
    compiled = Pash(PashConfig.paper_default(4, disabled_passes=("parallelize",))).compile(
        "cat a b c d | grep x > out.txt"
    )
    assert compiled.stats.regions_parallelized == 0
    graph = compiled.optimized_graphs[0]
    names = [node.name for node in graph.nodes.values() if isinstance(node, CommandNode)]
    assert names.count("grep") == 1
    assert not any(isinstance(node, SplitNode) for node in graph.nodes.values())


def test_disabling_aggregation_lowering_keeps_flat_aggregators():
    script = "cat a b c d e f g h | sort > out.txt"
    flat = Pash(PashConfig.paper_default(8, disabled_passes=("aggregation-lowering",))).compile(
        script
    )
    tree = Pash(PashConfig.paper_default(8)).compile(script)
    flat_aggs = [
        node
        for node in flat.optimized_graphs[0].nodes.values()
        if isinstance(node, AggregatorNode)
    ]
    tree_aggs = [
        node
        for node in tree.optimized_graphs[0].nodes.values()
        if isinstance(node, AggregatorNode)
    ]
    assert len(flat_aggs) == 1 and len(flat_aggs[0].inputs) == 8
    assert len(tree_aggs) == 7  # a full binary merge tree over 8 streams
    assert all(len(node.inputs) <= 2 for node in tree_aggs)


def test_lowering_matches_inline_fan_in_shape():
    """The post-pass tree has the same shape the legacy inline lowering built."""
    for width, fan_in, expected_aggregators in ((8, 2, 7), (8, 4, 3), (5, 2, 4), (4, 3, 2)):
        chunks = " ".join(f"c{i}" for i in range(width))
        compiled = Pash(
            PashConfig.paper_default(width, aggregation_fan_in=fan_in)
        ).compile(f"cat {chunks} | sort > out.txt")
        aggregators = [
            node
            for node in compiled.optimized_graphs[0].nodes.values()
            if isinstance(node, AggregatorNode)
        ]
        assert len(aggregators) == expected_aggregators, (width, fan_in)
        assert all(len(node.inputs) <= fan_in for node in aggregators)


def test_unknown_pass_names_fail_loudly():
    with pytest.raises(ValueError, match="unknown pass 'typo'"):
        build_pipeline(disabled=("typo",))
    with pytest.raises(ValueError, match="unknown pass"):
        Pash(PashConfig(extra_passes=("nope",))).compile("cat a b | grep x")


def test_pass_manager_without_returns_a_filtered_copy():
    manager = build_pipeline()
    trimmed = manager.without("eager-relays")
    assert trimmed.names() == [name for name in EXPECTED_ORDER if name != "eager-relays"]
    assert manager.names() == EXPECTED_ORDER  # original untouched


class WidthHalvingPass(GraphPass):
    """A registered extra pass used by the tests below (runs first-come)."""

    name = "test-width-note"
    description = "records that it ran"

    def run(self, context):
        context.report.skipped_commands.append("width-note-ran")


def test_registered_extra_pass_runs_through_the_config():
    register_pass(WidthHalvingPass)
    try:
        assert "test-width-note" in available_passes()
        compiled = Pash(PashConfig.paper_default(2, extra_passes=("test-width-note",))).compile(
            "cat a b | grep x > out.txt"
        )
        assert "width-note-ran" in compiled.reports[0].skipped_commands
        assert "test-width-note" in compiled.reports[0].pass_seconds
    finally:
        unregister_pass("test-width-note")
    assert "test-width-note" not in available_passes()


def test_default_passes_cannot_be_unregistered():
    with pytest.raises(ValueError, match="cannot unregister default pass"):
        unregister_pass("parallelize")


def test_registering_a_default_pass_name_fails_instead_of_shadowing():
    class Impostor(GraphPass):
        name = "parallelize"

    with pytest.raises(ValueError, match="shadow a default"):
        register_pass(Impostor)


def test_custom_pipeline_runs_standalone():
    graph = build("cat a b | grep x > out.txt")
    report = PassManager([]).run(graph, PashConfig.paper_default(2, fuse_stages=False))
    assert isinstance(report, OptimizationReport)
    assert report.parallelized_count == 0
    assert not any(isinstance(node, RelayNode) for node in graph.nodes.values())
