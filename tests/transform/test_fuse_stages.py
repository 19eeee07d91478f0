"""The fuse-stages pass: ablation identity, boundaries, config round-trip."""

import pytest

from repro import api
from repro.api import EagerMode, Pash, PashConfig, optimize
from repro.dfg.builder import DFGBuilder
from repro.dfg.nodes import (
    AggregatorNode,
    CatNode,
    CommandNode,
    FusedStage,
    RelayNode,
    SplitNode,
)
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from paper.workloads.oneliners import ONE_LINERS

WIDTH = 4

CHAIN_SCRIPT = "cat a.txt b.txt | grep foo | tr a-z A-Z | sed s/OO/0/ > out.txt"


def compiled(script, **overrides):
    return Pash(PashConfig.paper_default(WIDTH, **overrides)).compile(script)


def fused_nodes(graph):
    return [node for node in graph.nodes.values() if isinstance(node, FusedStage)]


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def test_linear_stateless_chains_fuse_into_single_nodes():
    graph = compiled(CHAIN_SCRIPT).optimized_graphs[0]
    stages = fused_nodes(graph)
    assert len(stages) == 2  # one grep|tr|sed chain per cat input
    for stage in stages:
        assert [member.name for member in stage.nodes] == ["grep", "tr", "sed"]
        assert len(stage.inputs) == 1 and len(stage.outputs) == 1
    graph.validate()


def test_fusion_reduces_node_count_and_reports():
    fused = compiled(CHAIN_SCRIPT)
    unfused = compiled(CHAIN_SCRIPT, fuse_stages=False)
    fused_graph, unfused_graph = fused.optimized_graphs[0], unfused.optimized_graphs[0]
    saved = sum(len(stage.nodes) - 1 for stage in fused_nodes(fused_graph))
    assert saved > 0
    assert len(fused_graph.nodes) == len(unfused_graph.nodes) - saved
    assert fused.reports[0].fused_stages == len(fused_nodes(fused_graph))
    assert unfused.reports[0].fused_stages == 0


def test_fusion_never_crosses_relays_splits_or_fan_in():
    """Relay/cat/split/aggregator populations are identical with and without
    fusion — only plain command nodes are ever absorbed into stages."""
    for eager in (EagerMode.EAGER, EagerMode.BLOCKING):
        fused = Pash(
            PashConfig(width=WIDTH, eager=eager)
        ).compile(CHAIN_SCRIPT).optimized_graphs[0]
        unfused = Pash(
            PashConfig(width=WIDTH, eager=eager, fuse_stages=False)
        ).compile(CHAIN_SCRIPT).optimized_graphs[0]

        def census(graph):
            return {
                kind: len([n for n in graph.nodes.values() if isinstance(n, kind)])
                for kind in (RelayNode, CatNode, SplitNode, AggregatorNode)
            }

        assert census(fused) == census(unfused)
        # Every fused member is a stateless command; boundary nodes never fuse.
        for stage in fused_nodes(fused):
            assert all(isinstance(member, CommandNode) for member in stage.nodes)


def test_blocking_relays_separate_chains():
    graph = Pash(
        PashConfig(width=WIDTH, eager=EagerMode.BLOCKING)
    ).compile(CHAIN_SCRIPT).optimized_graphs[0]
    blocking = [
        node
        for node in graph.nodes.values()
        if isinstance(node, RelayNode) and node.blocking
    ]
    assert blocking  # the configuration actually inserted blocking relays
    for relay in blocking:
        for edge_id in relay.inputs + relay.outputs:
            edge = graph.edge(edge_id)
            for endpoint in (edge.source, edge.target):
                if endpoint is not None and endpoint != relay.node_id:
                    # Neighbours may be fused stages, but the relay itself
                    # stayed a distinct node on a real edge.
                    assert endpoint in graph.nodes


def test_single_commands_are_not_wrapped():
    graph = compiled("cat a.txt b.txt | grep foo > out.txt").optimized_graphs[0]
    assert fused_nodes(graph) == []


def test_legacy_parallelization_config_defaults_to_unfused():
    graph = DFGBuilder().build_from_script(CHAIN_SCRIPT)
    optimize(graph, PashConfig.paper_default(WIDTH, fuse_stages=False))
    assert fused_nodes(graph) == []


# ---------------------------------------------------------------------------
# Ablation identity: bit-for-bit equal outputs on all Table-2 one-liners
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("one_liner", ONE_LINERS, ids=lambda b: b.name)
def test_ablation_is_bit_for_bit_identical_on_table2(one_liner):
    script = one_liner.script_for_width(WIDTH)
    dataset = one_liner.correctness_dataset(WIDTH, 240)

    def run(**overrides):
        environment = ExecutionEnvironment(
            filesystem=VirtualFileSystem({name: list(data) for name, data in dataset.items()})
        )
        result = api.run(
            script,
            config=PashConfig.paper_default(WIDTH, **overrides),
            backend="interpreter",
            environment=environment,
        )
        return result.stdout, dict(result.files)

    assert run() == run(fuse_stages=False)
    assert run() == run(disabled_passes=("fuse-stages",))


def test_disable_pass_matches_config_flag_structurally():
    by_flag = compiled(CHAIN_SCRIPT, fuse_stages=False)
    by_name = compiled(CHAIN_SCRIPT, disabled_passes=("fuse-stages",))
    shape = lambda g: [  # noqa: E731 - tiny local fingerprint
        (type(node).__name__, getattr(node, "name", "")) for node in g.topological_order()
    ]
    assert shape(by_flag.optimized_graphs[0]) == shape(by_name.optimized_graphs[0])


# ---------------------------------------------------------------------------
# Config round-trip and emission
# ---------------------------------------------------------------------------


def test_disable_pass_round_trips_through_config_dicts():
    config = PashConfig.paper_default(WIDTH, disabled_passes=("fuse-stages",))
    restored = PashConfig.from_dict(config.to_dict())
    assert restored == config
    assert restored.disabled_passes == ("fuse-stages",)
    assert "fuse-stages" not in restored.pipeline().names()

    flagged = PashConfig.paper_default(WIDTH, fuse_stages=False)
    assert PashConfig.from_dict(flagged.to_dict()) == flagged
    assert PashConfig.from_dict(flagged.to_dict()).fuse_stages is False


def test_emitted_script_renders_fused_stage_as_pipeline():
    text = Pash(
        PashConfig.paper_default(WIDTH, fifo_prefix="fifo")
    ).compile(CHAIN_SCRIPT).text
    assert "grep foo < a.txt | tr a-z A-Z | sed s/OO/0/" in text
