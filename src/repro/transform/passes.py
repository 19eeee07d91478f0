"""The optimization pass manager: named, ordered, individually-toggleable passes.

The optimizer is an ordered list of named :class:`GraphPass` objects that
run in a fixed order over one
:class:`~repro.dfg.graph.DataflowGraph`:

1. ``split-insertion`` — contributes the t2 rule (§4.2).  Split insertion is
   *demand-driven*: a split only pays off at the moment the parallelization
   transformation needs a concatenation in front of a single-input node, so
   this pass installs the rule into the :class:`PassContext` rather than
   mutating the graph up front.  Disabling it by name is exactly
   ``SplitMode.NONE``.
2. ``parallelize`` — the node-parallelization transformation T plus the t1
   ``cat``-insertion, applied to a fixpoint.  Pure commands are combined with
   a single *flat* aggregator at this stage.
3. ``aggregation-lowering`` — rewrites flat aggregators into merge trees of
   the configured fan-in (2 = binary tree, as in the paper).  Aggregators are
   never commuted by T, so deferring the lowering does not change any
   parallelization decision; it only separates *what to combine* from *how to
   combine it*.
4. ``eager-relays`` — the t3 relay insertion (§5.2).  Disabling it by name is
   exactly ``EagerMode.NONE``.

New passes (e.g. profile-driven width selection) register through
:func:`register_pass` and are enabled per-compilation with
``PashConfig(extra_passes=("my-pass",))``; the CLI exposes the inverse knob as
``--disable-pass NAME``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Type

from repro.annotations.classes import ParallelizabilityClass
from repro.commands.argv import parse_argv
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import AggregatorNode, CommandNode, DFGNode, FusedStage
from repro.runtime.executor import node_streams_statelessly
from repro.transform.auxiliary import (
    CONCATENATION_EQUIVALENT_COMMANDS,
    insert_cat_for_multi_input,
    insert_eager_relays,
    insert_split_before,
)
from repro.transform.parallelize import (
    is_parallelizable_node,
    parallelize_node,
    preceding_concatenation,
    reduce_stream_edges,
)
from repro.transform.pipeline import EagerMode, OptimizationReport, SplitMode

if TYPE_CHECKING:  # pragma: no cover - repro.api.config imports this package
    from repro.api.config import PashConfig


#: A command is parallelized only into at least this many copies: fewer
#: streams than this (or a narrower width) leave it sequential.
MINIMUM_COPIES = 2


@dataclass
class PassContext:
    """Everything a pass may read or write while running over one graph.

    ``state`` is the inter-pass scratchpad: earlier passes install rules or
    analysis results that later passes (or the T fixpoint) consume.
    """

    graph: DataflowGraph
    config: "PashConfig"
    report: OptimizationReport
    state: Dict[str, object] = field(default_factory=dict)


class GraphPass:
    """One named transformation over a dataflow graph."""

    #: Unique pass name, used for toggling (``disabled_passes``/``extra_passes``).
    name = "abstract"
    description = ""

    def run(self, context: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SplitInsertionPass(GraphPass):
    """Installs the t2 split rule consumed by the ``parallelize`` fixpoint."""

    name = "split-insertion"
    description = "t2: make single-input commands parallelizable via split+cat"

    #: Key under which the rule is published in :attr:`PassContext.state`.
    STATE_KEY = "split_inserter"

    def run(self, context: PassContext) -> None:
        config = context.config
        if config.split is SplitMode.NONE:
            return

        def rule(graph: DataflowGraph, node: CommandNode):
            return insert_split_before(graph, node, config.width, strategy=config.split.value)

        context.state[self.STATE_KEY] = rule


class ParallelizePass(GraphPass):
    """The §4.2 fixpoint: apply t1/t2/T until no command can be parallelized."""

    name = "parallelize"
    description = "T: replace each parallelizable command with width copies"

    def run(self, context: PassContext) -> None:
        graph, config, report = context.graph, context.config, context.report
        width = config.width
        if width < MINIMUM_COPIES:
            return
        split_rule = context.state.get(SplitInsertionPass.STATE_KEY)

        progress = True
        while progress:
            progress = False
            for node in list(graph.topological_order()):
                if node.node_id not in graph.nodes:
                    continue
                if not is_parallelizable_node(node):
                    continue
                assert isinstance(node, CommandNode)
                if node.parallelized_copy:
                    continue
                if _uses_positional_offset(node):
                    # head/tail invocations such as `tail -n +2` select lines
                    # by absolute position; splitting their input would change
                    # which lines are skipped, so they stay sequential.
                    continue
                if _is_trivial_concatenation(graph, node):
                    # A bare `cat` feeding a parallelizable consumer is
                    # commuted by the consumer's transformation; parallelizing
                    # it on its own only adds processes.
                    continue

                concatenation = preceding_concatenation(graph, node)
                if concatenation is None and len(node.data_inputs) >= MINIMUM_COPIES:
                    concatenation = insert_cat_for_multi_input(graph, node)
                if concatenation is None and split_rule is not None:
                    if len(node.data_inputs) == 1:
                        concatenation = split_rule(graph, node)
                        if concatenation is not None:
                            report.inserted_splits += 1
                if concatenation is None or len(concatenation.inputs) < MINIMUM_COPIES:
                    # T over a single-stream concatenation would make one copy.
                    if node.label() not in report.skipped_commands:
                        report.skipped_commands.append(node.label())
                    continue

                # fan_in=0: pure commands get one flat aggregator here; the
                # aggregation-lowering pass shapes it into a tree afterwards.
                copies = parallelize_node(
                    graph,
                    node,
                    concatenation,
                    fan_in=0,
                    max_copies=width,
                )
                if copies:
                    report.parallelized_commands.append(node.label())
                    progress = True
                    break  # Topological order changed; restart the scan.


class AggregationLoweringPass(GraphPass):
    """Rewrites flat aggregators into merge trees of the configured fan-in."""

    name = "aggregation-lowering"
    description = "shape pure-command aggregation into fan-in merge trees"

    def run(self, context: PassContext) -> None:
        fan_in = context.config.aggregation_fan_in
        if fan_in <= 1:
            return  # 0/1 mean "one flat aggregator", already the case.
        graph = context.graph
        for node in list(graph.nodes.values()):
            if isinstance(node, AggregatorNode) and len(node.inputs) > fan_in:
                self._lower(graph, node, fan_in)

    @staticmethod
    def _lower(graph: DataflowGraph, root: AggregatorNode, fan_in: int) -> None:
        """Grow a tree below ``root``, which stays the final merge stage."""
        level = [graph.edge(edge_id) for edge_id in list(root.inputs)]
        root.inputs = []
        for edge in level:
            edge.target = None  # free the edges for the tree builder
        remaining = reduce_stream_edges(
            graph, root.aggregator, root.command_name, root.command_arguments, level, fan_in
        )
        for edge in remaining:
            edge.target = root.node_id
            root.inputs.append(edge.edge_id)


class EagerRelayPass(GraphPass):
    """The t3 relay insertion defeating the shell's lazy evaluation (§5.2)."""

    name = "eager-relays"
    description = "t3: buffer aggregator/cat/split edges with relay nodes"

    def run(self, context: PassContext) -> None:
        mode = context.config.eager
        if mode is EagerMode.NONE:
            return
        relays = insert_eager_relays(
            context.graph,
            eager=mode is EagerMode.EAGER,
            blocking=mode is EagerMode.BLOCKING,
        )
        context.report.inserted_relays = len(relays)


class FuseStagesPass(GraphPass):
    """Collapse maximal linear chains of stateless commands into one stage.

    The engine maps one process (plus per-edge pipes and pumps) to every
    node, so a straight line of stateless commands — ``grep | tr | cut`` —
    pays an OS pipe, a pump thread, and a chunk re-framing at every interior
    edge for data that could flow through a single in-process pipeline.
    This pass replaces each such chain with one
    :class:`~repro.dfg.nodes.FusedStage` that a single worker evaluates
    batch-at-a-time.  A chain may end in one pure command that is not
    stateless (``tr A-Z a-z | sort``): the stage then needs its whole input,
    as that command did alone.  Fusion is gated on the Table-1 annotation
    class via :func:`repro.runtime.executor.node_streams_statelessly`, so it
    never crosses a fan-out/fan-in boundary, a relay (eager or blocking), a
    split, or an aggregator — exactly the places where the order-aware
    dataflow analysis needs real inter-process edges for deadlock-freedom.

    Disabled by ``fuse_stages=False`` on the config or by name
    (``--disable-pass fuse-stages``); the ablation reproduces the unfused
    graph bit-for-bit because fusion is pure node-composition.
    """

    name = "fuse-stages"
    description = "collapse linear stateless chains into single-worker stages"

    def run(self, context: PassContext) -> None:
        if not context.config.fuse_stages:
            return
        graph = context.graph
        for node in list(graph.topological_order()):
            if node.node_id not in graph.nodes:
                continue  # already fused into an earlier chain
            if not self._fusable(node):
                continue
            producer = self._single_producer(graph, node)
            if producer is not None and self._fusable(producer):
                continue  # not a chain head; handled from the head
            chain = [node]
            while self._fusable(chain[-1]):  # a pure tail closes the chain
                edge = graph.edge(chain[-1].outputs[0])
                if edge.target is None or not self._member(graph.node(edge.target)):
                    break
                chain.append(graph.node(edge.target))
            if len(chain) >= 2:
                self._fuse(graph, chain)
                context.report.fused_stages += 1

    @staticmethod
    def _member(node: DFGNode) -> bool:
        """Single-input single-output pure command (chain member shape)."""
        return (
            isinstance(node, CommandNode)
            and node.parallelizability_class is not ParallelizabilityClass.SIDE_EFFECTFUL
            and len(node.inputs) == 1 == len(node.outputs)
            and not node.config_inputs
        )

    @classmethod
    def _fusable(cls, node: DFGNode) -> bool:
        """A member that is stateless: it may start a chain and sit inside one."""
        return cls._member(node) and node_streams_statelessly(node)

    @staticmethod
    def _single_producer(graph: DataflowGraph, node: DFGNode) -> Optional[DFGNode]:
        edge = graph.edge(node.inputs[0])
        return graph.node(edge.source) if edge.source is not None else None

    @staticmethod
    def _fuse(graph: DataflowGraph, chain: List[CommandNode]) -> FusedStage:
        """Splice one FusedStage in place of ``chain``, dropping interior edges."""
        head, tail = chain[0], chain[-1]
        input_edge = graph.edge(head.inputs[0])
        output_edge = graph.edge(tail.outputs[0])
        interior = [member.outputs[0] for member in chain[:-1]]

        stage = FusedStage(nodes=list(chain))
        graph.add_node(stage)
        for member in chain:
            graph.nodes.pop(member.node_id)
        for edge_id in interior:
            graph.edges.pop(edge_id)

        input_edge.target = stage.node_id
        stage.inputs = [input_edge.edge_id]
        output_edge.source = stage.node_id
        stage.outputs = [output_edge.edge_id]
        return stage


def gets_copies(node: DFGNode) -> bool:
    """Whether :class:`ParallelizePass` replaces ``node`` by copies, splits allowed.

    The region planner counts a shape's lanes with it before any shape exists.
    """
    if not is_parallelizable_node(node) or _uses_positional_offset(node):
        return False
    inputs = len(node.data_inputs)
    return inputs == 1 or inputs > 1 and node.name in CONCATENATION_EQUIVALENT_COMMANDS


def _uses_positional_offset(node: CommandNode) -> bool:
    """True for head/tail invocations that count lines from an end of the whole input (``-n +2``, ``head -n -2``)."""
    if node.name not in ("head", "tail"):
        return False
    count = parse_argv(node.name, node.arguments).value("-n", "")
    return count[:1] == ("-" if node.name == "head" else "+")


def _is_trivial_concatenation(graph: DataflowGraph, node: CommandNode) -> bool:
    """True for a flag-less ``cat`` whose consumer is itself parallelizable."""
    if node.name != "cat" or node.arguments:
        return False
    successors = graph.successors(node)
    if len(successors) != 1:
        # cat writing to the graph output: parallelizing it cannot help.
        return len(node.data_inputs) >= 1
    consumer = successors[0]
    return is_parallelizable_node(consumer) or not isinstance(consumer, CommandNode)


# ---------------------------------------------------------------------------
# Registry and pipeline construction
# ---------------------------------------------------------------------------

#: The default pipeline, in execution order.
DEFAULT_PIPELINE: List[Type[GraphPass]] = [
    SplitInsertionPass,
    ParallelizePass,
    AggregationLoweringPass,
    EagerRelayPass,
    FuseStagesPass,
]

#: Every registered pass, by name (defaults plus user-registered ones).
PASS_REGISTRY: Dict[str, Callable[[], GraphPass]] = {
    pass_class.name: pass_class for pass_class in DEFAULT_PIPELINE
}


def register_pass(pass_class: Type[GraphPass]) -> Type[GraphPass]:
    """Register a pass class so configs can enable it by name.

    Usable as a decorator.  Registered passes are appended after the default
    pipeline when named in ``extra_passes``.
    """
    if not pass_class.name or pass_class.name == GraphPass.name:
        raise ValueError("a pass must define a unique non-default `name`")
    if any(default.name == pass_class.name for default in DEFAULT_PIPELINE):
        # Silently shadowing a default pass would never take effect:
        # build_pipeline instantiates defaults first and drops duplicates.
        raise ValueError(
            f"cannot register {pass_class.name!r}: it would shadow a default "
            "pipeline pass (disable the default by name instead)"
        )
    PASS_REGISTRY[pass_class.name] = pass_class
    return pass_class


def unregister_pass(name: str) -> None:
    """Remove a registered pass (default-pipeline passes cannot be removed)."""
    if any(pass_class.name == name for pass_class in DEFAULT_PIPELINE):
        raise ValueError(f"cannot unregister default pass {name!r}")
    PASS_REGISTRY.pop(name, None)


def available_passes() -> List[str]:
    """Names of every registered pass (default pipeline first, then extras)."""
    ordered = [pass_class.name for pass_class in DEFAULT_PIPELINE]
    ordered.extend(sorted(name for name in PASS_REGISTRY if name not in ordered))
    return ordered


class PassManager:
    """An ordered list of passes applied to a graph under one configuration."""

    def __init__(self, passes: Sequence[GraphPass]):
        self.passes = list(passes)

    def names(self) -> List[str]:
        return [graph_pass.name for graph_pass in self.passes]

    def without(self, *names: str) -> "PassManager":
        return PassManager([p for p in self.passes if p.name not in names])

    def run(
        self,
        graph: DataflowGraph,
        config: "PashConfig",
        report: Optional[OptimizationReport] = None,
        tracer: Optional["Tracer"] = None,
    ) -> OptimizationReport:
        """Apply every pass in order, in place; returns the report.

        ``tracer`` (a :class:`repro.obs.tracer.Tracer`) records one span per
        pass, so a trace shows exactly where compile time goes.
        """
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER

            tracer = NULL_TRACER
        report = report or OptimizationReport()
        context = PassContext(graph=graph, config=config, report=report)
        started = time.perf_counter()
        for graph_pass in self.passes:
            with tracer.span(f"pass:{graph_pass.name}", "pass") as span:
                pass_started = time.perf_counter()
                graph_pass.run(context)
                elapsed = time.perf_counter() - pass_started
                report.pass_seconds[graph_pass.name] = elapsed
                span.set(seconds=elapsed, nodes=len(graph.nodes))
        graph.validate()
        report.compile_time_seconds = time.perf_counter() - started
        return report


def build_pipeline(
    disabled: Sequence[str] = (),
    extra: Sequence[str] = (),
) -> PassManager:
    """Build the default pass pipeline, with name-based toggling.

    The pipeline shape is config-independent (each pass self-gates on the
    config it receives at :meth:`PassManager.run` time).  ``disabled``
    removes default passes by name (``"eager-relays"`` reproduces
    ``EagerMode.NONE``, ``"split-insertion"`` reproduces ``SplitMode.NONE``);
    ``extra`` appends registered non-default passes.  Unknown names raise
    ``ValueError`` so typos fail loudly rather than silently changing the
    compilation.
    """
    known = set(PASS_REGISTRY)
    for name in list(disabled) + list(extra):
        if name not in known:
            raise ValueError(
                f"unknown pass {name!r}; available: {', '.join(available_passes())}"
            )
    passes: List[GraphPass] = [pass_class() for pass_class in DEFAULT_PIPELINE]
    for name in extra:
        if name not in [p.name for p in passes]:
            passes.append(PASS_REGISTRY[name]())
    return PassManager([p for p in passes if p.name not in set(disabled)])
