"""Per-command cost and selectivity models.

Costs are deliberately simple — a per-line CPU cost, an optional
``n log n`` complexity for sorting, a selectivity describing how many output
lines a command produces per input line, and a flag marking commands that
cannot emit anything before consuming their whole input.  The constants are
calibrated so that the *relative* behaviour matches the paper's observations
(grep with a complex regex is CPU-bound, `wc`/`cut` are cheap and IO-bound,
sort dominates its pipelines, merging is cheaper than sorting but not free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.commands.argv import parse_argv
from repro.commands.base import CommandError
from repro.dfg.nodes import (
    AggregatorNode,
    CatNode,
    CommandNode,
    DFGNode,
    FusedStage,
    RelayNode,
    SplitNode,
)


@dataclass
class CommandCost:
    """Cost description of one command (or helper node)."""

    #: CPU seconds per input line.
    seconds_per_line: float = 2e-7
    #: Output lines produced per input line (ignored when fixed_output_lines).
    selectivity: float = 1.0
    #: Commands like wc or head produce a fixed-size output.
    fixed_output_lines: Optional[int] = None
    #: True for commands that emit nothing until they consumed all input.
    blocking: bool = False
    #: "linear" or "nlogn" (sort-like) complexity in the input size.
    complexity: str = "linear"
    #: Per-process startup cost (exec, parsing flags, loading patterns).
    startup_seconds: float = 0.001

    def work_seconds(self, input_lines: int) -> float:
        """CPU time to process ``input_lines``."""
        lines = max(input_lines, 0)
        if self.complexity == "nlogn":
            factor = math.log2(lines) if lines > 2 else 1.0
            return self.startup_seconds + self.seconds_per_line * lines * factor
        return self.startup_seconds + self.seconds_per_line * lines

    def output_lines(self, input_lines: int) -> int:
        """Estimated number of output lines."""
        if self.fixed_output_lines is not None:
            return min(self.fixed_output_lines, max(input_lines, self.fixed_output_lines))
        return int(max(input_lines, 0) * self.selectivity)


_CHEAP = 1.5e-7
_MEDIUM = 6e-7
_EXPENSIVE = 4e-6


def _default_costs() -> Dict[str, CommandCost]:
    return {
        # Stateless text processing.
        "cat": CommandCost(seconds_per_line=5e-8),
        "tr": CommandCost(seconds_per_line=_CHEAP),
        "cut": CommandCost(seconds_per_line=_CHEAP),
        "sed": CommandCost(seconds_per_line=_MEDIUM),
        "grep": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.25),
        "egrep": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.25),
        "fgrep": CommandCost(seconds_per_line=_CHEAP, selectivity=0.25),
        "xargs": CommandCost(seconds_per_line=_MEDIUM),
        "fold": CommandCost(seconds_per_line=_CHEAP, selectivity=1.3),
        "rev": CommandCost(seconds_per_line=_CHEAP),
        "col": CommandCost(seconds_per_line=_CHEAP),
        "iconv": CommandCost(seconds_per_line=_CHEAP),
        "gunzip": CommandCost(seconds_per_line=_CHEAP, selectivity=3.0),
        "zcat": CommandCost(seconds_per_line=_CHEAP, selectivity=3.0),
        "awk": CommandCost(seconds_per_line=_MEDIUM),
        # Pure commands.
        "sort": CommandCost(seconds_per_line=_MEDIUM, blocking=True, complexity="nlogn"),
        "uniq": CommandCost(seconds_per_line=_CHEAP, selectivity=0.4),
        "wc": CommandCost(seconds_per_line=_CHEAP, fixed_output_lines=1, blocking=True),
        "head": CommandCost(seconds_per_line=2e-8, fixed_output_lines=10),
        "tail": CommandCost(seconds_per_line=2e-8, fixed_output_lines=10, blocking=True),
        "tac": CommandCost(seconds_per_line=_CHEAP, blocking=True),
        "comm": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.6, blocking=True),
        "nl": CommandCost(seconds_per_line=_CHEAP),
        "join": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.5, blocking=True),
        "paste": CommandCost(seconds_per_line=_CHEAP),
        # Non-parallelizable pure.
        "sha1sum": CommandCost(seconds_per_line=_MEDIUM, fixed_output_lines=1, blocking=True),
        "md5sum": CommandCost(seconds_per_line=_MEDIUM, fixed_output_lines=1, blocking=True),
        "diff": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.2, blocking=True),
        # Use-case custom commands (annotated, outside POSIX/GNU).
        "html-to-text": CommandCost(seconds_per_line=_EXPENSIVE, selectivity=0.6),
        "url-extract": CommandCost(seconds_per_line=_MEDIUM, selectivity=0.3),
        "word-stem": CommandCost(seconds_per_line=_EXPENSIVE),
        "strip-punct": CommandCost(seconds_per_line=_CHEAP),
        "lowercase": CommandCost(seconds_per_line=_CHEAP),
        "bigrams": CommandCost(seconds_per_line=_MEDIUM, selectivity=7.0),
        "trigrams": CommandCost(seconds_per_line=_MEDIUM, selectivity=3.0, blocking=True),
        # Fetch stand-ins: one input line names a remote object whose download
        # and decompression dominates (hundreds of output lines per input).
        "fetch-station": CommandCost(seconds_per_line=0.08, selectivity=365.0),
        "fetch-page": CommandCost(seconds_per_line=0.15, selectivity=200.0),
        "curl": CommandCost(seconds_per_line=0.08, selectivity=365.0),
        "seq": CommandCost(seconds_per_line=5e-8),
        "echo": CommandCost(seconds_per_line=5e-8),
    }


_AGGREGATOR_COSTS: Dict[str, CommandCost] = {
    "concat": CommandCost(seconds_per_line=5e-8),
    "squeeze_concat": CommandCost(seconds_per_line=5e-8),
    # GNU sort's merge phase is memory-bandwidth bound and does not overlap
    # well across tree levels; modelling it as a blocking stage with a
    # noticeable per-line cost reproduces the limited scalability of sort
    # observed in the paper (§6.5: "sort's scalability is inherently limited").
    "merge_sort": CommandCost(seconds_per_line=1.0e-6, blocking=True),
    "merge_uniq": CommandCost(seconds_per_line=1.5e-7, selectivity=0.95),
    "merge_uniq_count": CommandCost(seconds_per_line=1.5e-7, selectivity=0.95),
    "merge_wc": CommandCost(seconds_per_line=1e-7, fixed_output_lines=1),
    "merge_tac": CommandCost(seconds_per_line=1e-7),
    "merge_head": CommandCost(seconds_per_line=2e-8, fixed_output_lines=10),
    "merge_tail": CommandCost(seconds_per_line=2e-8, fixed_output_lines=10),
    "merge_comm": CommandCost(seconds_per_line=1e-7),
    "sum": CommandCost(seconds_per_line=1e-7, fixed_output_lines=1),
}


#: The paper-shape cost of the helper nodes the passes insert.
_HELPER_COSTS: Dict[str, CommandCost] = {
    "cat": CommandCost(seconds_per_line=5e-8),
    "relay": CommandCost(seconds_per_line=3e-8),
    "split": CommandCost(seconds_per_line=6e-8),
}


class CostModel:
    """Maps DFG nodes to :class:`CommandCost` entries.

    Two tables exist.  The default one is GNU-shaped: relative costs of the
    real binaries on the paper's testbed, which the figures reproduce.
    :func:`python_cost_model` holds the measured rates of *our* Python
    kernels, which the region planner predicts real runs from.
    """

    def __init__(
        self,
        command_costs: Optional[Dict[str, CommandCost]] = None,
        default: Optional[CommandCost] = None,
        aggregator_costs: Optional[Dict[str, CommandCost]] = None,
        helper_costs: Optional[Dict[str, CommandCost]] = None,
    ) -> None:
        self.command_costs = dict(command_costs or _default_costs())
        self.default = default or CommandCost(seconds_per_line=_MEDIUM)
        self.aggregator_costs = aggregator_costs or _AGGREGATOR_COSTS
        self.helper_costs = helper_costs or _HELPER_COSTS

    # ------------------------------------------------------------------

    def override(self, name: str, **changes) -> "CostModel":
        """Return a new model with the named command's cost fields replaced."""
        updated = dict(self.command_costs)
        updated[name] = replace(updated.get(name, self.default), **changes)
        return CostModel(updated, self.default, self.aggregator_costs, self.helper_costs)

    def cost_for(self, node: DFGNode) -> CommandCost:
        """The cost entry for a node, taking flags into account."""
        if isinstance(node, AggregatorNode):
            return self.aggregator_costs.get(
                node.aggregator, CommandCost(seconds_per_line=1.5e-7)
            )
        if isinstance(node, CatNode):
            return self.helper_costs["cat"]
        if isinstance(node, RelayNode):
            return self.helper_costs["relay"]
        if isinstance(node, SplitNode):
            return replace(self.helper_costs["split"], blocking=node.strategy == "general")
        if isinstance(node, FusedStage):
            return self._compose(node)
        if isinstance(node, CommandNode):
            base = self.command_costs.get(node.name, self.default)
            return self._refine(node, base)
        return self.default

    def _compose(self, stage: FusedStage) -> CommandCost:
        """Cost of a fused chain: serialized member work, composed selectivity.

        The figures pipeline simulates the paper's one-process-per-node
        runtime (fusion pinned off there); the region planner bills the fused
        graph the pool runs.  Each member's per-line cost is scaled by the
        fraction of lines reaching it; the stage blocks when a member does,
        and takes its shape (complexity, fixed output) from its tail — the
        only member that may not be stateless.  Under an ``nlogn`` tail the
        linear members' rates are restated at the calibration size.
        """
        tail = self.cost_for(stage.nodes[-1])
        linear = math.log2(CALIBRATION_LINES) if tail.complexity == "nlogn" else 1.0
        seconds = 0.0
        selectivity = 1.0
        startup = 0.0
        blocking = False
        for member in stage.nodes:
            cost = self.cost_for(member)
            scale = 1.0 if cost.complexity == "nlogn" else linear
            seconds += selectivity * cost.seconds_per_line / scale
            selectivity *= cost.selectivity
            startup = max(startup, cost.startup_seconds)
            blocking = blocking or cost.blocking
        return replace(
            tail,
            seconds_per_line=seconds,
            selectivity=selectivity,
            startup_seconds=startup,
            blocking=blocking,
        )

    # ------------------------------------------------------------------

    def _refine(self, node: CommandNode, base: CommandCost) -> CommandCost:
        """Adjust a base cost using the node's flags, as the command reads them."""
        argv = _argv(node)
        if argv is None:
            return base
        if node.name == "xargs" and argv.operands[:1]:
            # xargs' cost is the wrapped command's cost (plus negligible glue).
            return self.command_costs.get(argv.operands[0], base)
        if node.name in ("head", "tail"):
            count = argv.value("-n", "10")
            return replace(base, fixed_output_lines=int(count) if count.lstrip("+-").isdigit() else 10)
        if node.name == "grep" and argv.has("-c"):
            return replace(base, fixed_output_lines=1, blocking=True)
        if node.name == "grep" and argv.has("-v"):
            return replace(base, selectivity=max(1.0 - base.selectivity, 0.05))
        if node.name == "sort" and argv.has("-m"):
            return replace(base, complexity="linear", blocking=False)
        if node.name == "cat" and argv.has("-n"):
            return replace(base, seconds_per_line=_CHEAP)
        return base


def _argv(node: CommandNode):
    """The node's argv as its command reads it (None: the command refuses it)."""
    try:
        return parse_argv(node.name, node.arguments)
    except CommandError:
        return None


def default_cost_model() -> CostModel:
    """A fresh copy of the default cost model."""
    return CostModel()


# ---------------------------------------------------------------------------
# The second table: our own Python kernels, as measured
# ---------------------------------------------------------------------------

#: Input size the rates below were measured at (``tools/calibrate_costs.py``).
CALIBRATION_LINES = 100_000

#: Million lines per second of ``CommandRegistry.run`` over ~55-byte text
#: lines on the ``str`` path, one typical invocation per command.  The first
#: five are pash-bench's ``commands.*_mlines_s`` probes.
PYTHON_KERNEL_MLINES_S: Dict[str, float] = {
    # Measured over distinct lines, so the comparison sort: a plain ``sort``
    # over a repeating stream counts first and runs faster, so there this row
    # over-estimates the sort in-process and in every pool copy alike.
    "sort": 4.2,
    "grep": 10.1,
    "tr": 5.9,
    "cut": 2.6,
    "uniq": 27.0,
    "sed": 3.6,
    # One comprehension compiled per program: ``{print $1}`` runs at about
    # ``tr``'s rate, ``{print $2, $0}`` (the corpus's heaviest) at 0.6 of it.
    "awk": 3.5,
    "wc": 120.0,
    "rev": 8.0,
    "fold": 3.0,
    "paste": 7.3,
    "cat": 120.0,
    "head": 120.0,
    "tail": 130.0,
    # ``tr -cs SET '\n'``: squeezing the many runs and splitting one word per
    # line (``-s``, ``-c`` and ``-d`` alone run at the plain rate).
    "tr -cs": 0.52,
}

#: The same for the helper nodes and aggregators the passes insert.
PYTHON_HELPER_MLINES_S: Dict[str, float] = {
    "split": 60.0,
    "concat": 75.0,
    "merge_sort": 18.0,
    "merge_uniq": 10.0,
    "merge_uniq_count": 1.8,
}

#: Rate assumed for a kernel nobody measured (a per-line Python loop).
_UNMEASURED_MLINES_S = 2.0
#: Entering a Python kernel costs a call, not an exec.
_PYTHON_STARTUP_SECONDS = 5e-6
#: Output lines per input line of a ``tr`` that translates into newlines
#: (one word per line): the words of a line of English text.
_WORDS_PER_LINE = 8.0


def _per_line(mlines_per_second: float, complexity: str = "linear") -> float:
    """``seconds_per_line`` that reproduces a rate at the calibration size."""
    seconds = 1.0 / (mlines_per_second * 1e6)
    if complexity == "nlogn":
        seconds /= math.log2(CALIBRATION_LINES)
    return seconds


class _PythonCostModel(CostModel):
    """The second table's flag refinements, on top of the shared ones."""

    def _refine(self, node: CommandNode, base: CommandCost) -> CommandCost:
        argv = _argv(node)
        if node.name == "tr" and argv is not None:
            if argv.operands[-1:] in (("\n",), ("\\n",)):
                if argv.has("-c", "-s"):
                    base = self.command_costs["tr -cs"]
                base = replace(base, selectivity=_WORDS_PER_LINE)
            return base
        return super()._refine(node, base)


def python_cost_model() -> CostModel:
    """The cost table of our Python kernels (what the region planner reads).

    Shapes (selectivity, blocking, complexity, the flag refinements) are the
    GNU table's: they describe what a command does to a stream, whoever
    implements it.  Rates are the measured ones above.
    """

    def measured(cost: CommandCost, rate: float) -> CommandCost:
        return replace(
            cost,
            seconds_per_line=_per_line(rate, cost.complexity),
            startup_seconds=_PYTHON_STARTUP_SECONDS,
        )

    commands = {
        name: measured(cost, PYTHON_KERNEL_MLINES_S.get(name, _UNMEASURED_MLINES_S))
        for name, cost in _default_costs().items()
    }
    commands["tr -cs"] = measured(commands["tr"], PYTHON_KERNEL_MLINES_S["tr -cs"])
    aggregators = {
        name: measured(cost, PYTHON_HELPER_MLINES_S.get(name, PYTHON_HELPER_MLINES_S["concat"]))
        for name, cost in _AGGREGATOR_COSTS.items()
    }
    helpers = {
        "cat": measured(_HELPER_COSTS["cat"], PYTHON_HELPER_MLINES_S["concat"]),
        "relay": measured(_HELPER_COSTS["relay"], PYTHON_HELPER_MLINES_S["concat"]),
        "split": measured(_HELPER_COSTS["split"], PYTHON_HELPER_MLINES_S["split"]),
    }
    return _PythonCostModel(
        commands,
        measured(CommandCost(), _UNMEASURED_MLINES_S),
        aggregator_costs=aggregators,
        helper_costs=helpers,
    )
