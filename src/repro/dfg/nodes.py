"""Nodes of the dataflow graph.

Every node is a function from an ordered list of input streams to an ordered
list of output streams (§4.1).  Besides plain command nodes the graph can
contain the helper nodes PaSh inserts during optimization: ``cat`` (stream
concatenation), ``split`` (the inverse), relays (identity nodes used for
eager buffering), and aggregators (the merge stage of map/aggregate pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.annotations.classes import ParallelizabilityClass


@dataclass
class DFGNode:
    """Base node: ordered input and output edge identifiers."""

    node_id: int = -1
    inputs: List[int] = field(default_factory=list)
    outputs: List[int] = field(default_factory=list)

    #: Human-readable kind, overridden by subclasses.
    kind: str = "node"

    def label(self) -> str:
        """Short label used by debug dumps and the emitter."""
        return self.kind

    def parallelizability(self) -> ParallelizabilityClass:
        """Default: helper nodes are stateless identity-ish operators."""
        return ParallelizabilityClass.STATELESS


@dataclass
class CommandNode(DFGNode):
    """A node wrapping a concrete command invocation."""

    name: str = ""
    arguments: List[str] = field(default_factory=list)
    parallelizability_class: ParallelizabilityClass = ParallelizabilityClass.SIDE_EFFECTFUL
    #: Aggregator used when parallelizing a pure command (annotation-provided).
    aggregator: Optional[str] = None
    #: Input edge ids that are *configuration* inputs: replicated, not split.
    config_inputs: List[int] = field(default_factory=list)
    #: Set on the copies produced by the parallelization transformation so
    #: the optimizer does not try to parallelize them again.
    parallelized_copy: bool = False
    kind: str = "command"

    def label(self) -> str:
        rendered = " ".join([self.name] + self.arguments)
        return rendered if len(rendered) <= 60 else rendered[:57] + "..."

    def parallelizability(self) -> ParallelizabilityClass:
        return self.parallelizability_class

    @property
    def data_inputs(self) -> List[int]:
        """Input edges excluding configuration inputs."""
        return [edge for edge in self.inputs if edge not in self.config_inputs]


@dataclass
class CatNode(DFGNode):
    """Concatenate the input streams in order."""

    kind: str = "cat"

    def label(self) -> str:
        return f"cat x{len(self.inputs)}"


@dataclass
class SplitNode(DFGNode):
    """Split one input stream across the output streams.

    ``strategy`` is ``"general"`` (count lines first, then split evenly — used
    when the input size is unknown) or ``"input-aware"`` (block-split without
    a counting pass, usable when the size is known beforehand), matching the
    two implementations of §5.2.
    """

    strategy: str = "general"
    kind: str = "split"

    def label(self) -> str:
        return f"split[{self.strategy}] x{len(self.outputs)}"


@dataclass
class RelayNode(DFGNode):
    """Identity relay used for eager buffering, monitoring, and debugging.

    ``eager`` selects the §5.2 eager implementation (consume input as fast as
    possible into an unbounded buffer); ``blocking`` models the intermediate
    design point evaluated in Fig. 7 ("Blocking Eager").
    """

    eager: bool = True
    blocking: bool = False
    kind: str = "relay"

    def label(self) -> str:
        if self.blocking:
            return "relay[blocking]"
        return "relay[eager]" if self.eager else "relay"


@dataclass
class FusedStage(DFGNode):
    """A maximal linear chain of commands evaluated by one worker.

    Produced by the ``fuse-stages`` optimization pass: consecutive
    single-input single-output commands in the *stateless* annotation class
    (Table 1), optionally closed by one pure command that is not
    (``tr A-Z a-z | sort``), are collapsed into one node.  Semantically the
    stage is the function composition of its members.  Stateless commands
    satisfy ``f(concat(xs)) == concat(map(f, xs))`` and composition preserves
    that, so an all-stateless stage streams batch-at-a-time exactly like its
    members did; a stage with a pure tail needs its whole input, as the tail
    did.  The parallel engine runs the chain in a single worker with no
    interior OS pipe, pump thread, or chunk re-framing; the shell back-end
    emits it as a plain ``a | b | c`` pipeline.
    """

    #: The fused command nodes, in dataflow order.  Their ``node_id``s are
    #: stale (the members left the graph); only name/arguments/class matter.
    nodes: List["CommandNode"] = field(default_factory=list)
    kind: str = "fused"

    def label(self) -> str:
        rendered = " | ".join(node.label() for node in self.nodes)
        return rendered if len(rendered) <= 60 else rendered[:57] + "..."

    def parallelizability(self) -> ParallelizabilityClass:
        """The least parallelizable class among the members."""
        classes = [node.parallelizability_class for node in self.nodes]
        return max(classes, default=ParallelizabilityClass.STATELESS)


@dataclass
class AggregatorNode(DFGNode):
    """Merge the outputs of parallel copies of a pure command."""

    aggregator: str = "concat"
    #: The original command's name/arguments (aggregators such as ``sort -m``
    #: need the original flags, e.g. ``-rn``, to merge correctly).
    command_name: str = ""
    command_arguments: List[str] = field(default_factory=list)
    kind: str = "aggregator"

    def label(self) -> str:
        return f"agg[{self.aggregator}] x{len(self.inputs)}"

    def parallelizability(self) -> ParallelizabilityClass:
        return ParallelizabilityClass.PARALLELIZABLE_PURE
