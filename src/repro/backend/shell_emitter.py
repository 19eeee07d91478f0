"""Instantiate a dataflow graph as a parallel POSIX shell script.

The emitted script follows the shape of Fig. 3 in the paper:

* one ``mkfifo`` per pipe edge,
* one background job per node,
* ``wait`` on the graph's output producers only, followed by delivery of
  PIPE signals to any producers still alive (the "dangling FIFOs and zombie
  producers" fix of §5.2), and
* removal of the FIFOs.

Runtime helper nodes (eager relays, split, and aggregators without a
coreutils equivalent) are emitted as calls to ``python3 -m repro.runtime.cli``
so the scripts remain runnable on any machine with this package installed.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Dict, List, Optional

import repro
from repro.annotations.library import shared_standard_library
from repro.api.config import PashConfig
from repro.commands.argv import parse_argv
from repro.dfg.edges import EdgeKind
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
from repro.shell.unparser import quote_argument


#: Counter making FIFO names unique across compilations within one process,
#: so that two emitted scripts (or two runs of the same script) never collide
#: on /tmp paths.
_EMISSION_COUNTER = itertools.count()


def _default_fifo_prefix() -> str:
    return f"pash_fifo_{os.getpid()}_{next(_EMISSION_COUNTER)}"


def _runtime_command() -> str:
    """Invocation of the runtime helpers that works from any directory.

    The emitted script may run with a working directory (and environment) that
    has no idea where this package lives, so the helper invocation pins the
    interpreter that emitted the script and prepends the package root to
    ``PYTHONPATH``.  Scripts stay portable: on a machine where the package is
    properly installed the extra path entry is harmless.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    python = sys.executable or "python3"
    return (
        f'PYTHONPATH={quote_argument(package_root)}"${{PYTHONPATH:+:$PYTHONPATH}}" '
        f"{quote_argument(python)} -m repro.runtime.cli"
    )


def emit_parallel_script(
    graph: DataflowGraph,
    config: Optional[PashConfig] = None,
    *,
    stdin_path: str = "/dev/stdin",
) -> str:
    """Render ``graph`` as a parallel shell script.

    ``config`` supplies the FIFO directory and an optional fixed FIFO
    prefix.  ``stdin_path`` is the path read for STDIN edges: the default
    works for foreground use, but a background job's /dev/stdin is /dev/null
    under POSIX sh, so callers that feed stdin programmatically point it at
    a real file.
    """
    config = config or PashConfig()
    graph.validate()

    prefix = f"{config.fifo_directory}/{config.fifo_prefix or _default_fifo_prefix()}"
    fifo_names = _assign_fifo_names(graph, config.fifo_directory, prefix, stdin_path)
    runtime_command = _runtime_command()
    lines: List[str] = []

    pipe_edges = [fifo_names[edge.edge_id] for edge in graph.edges.values() if edge.kind is EdgeKind.PIPE]
    if pipe_edges:
        lines.append("mkfifo " + " ".join(pipe_edges))

    lines.append('pash_pids=""')
    lines.append('pash_output_pids=""')
    sink_ids = {node.node_id for node in _output_producers(graph)}

    for node in graph.topological_order():
        command = _emit_node(node, graph, fifo_names, runtime_command)
        lines.append(f"{command} &")
        lines.append('pash_pids="$pash_pids $!"')
        if node.node_id in sink_ids:
            lines.append('pash_output_pids="$pash_output_pids $!"')

    lines.append("wait $pash_output_pids")
    # Deliver PIPE to any producer still blocked on a FIFO without a consumer
    # (e.g. when head exited early).  By recorded pid: `jobs -p` in a
    # pipeline runs in a subshell whose job table is empty under dash.
    # `|| true`: with every job already gone `kill` fails, and this may be the
    # fragment's last command.
    lines.append("kill -PIPE $pash_pids 2>/dev/null || true")
    if pipe_edges:
        lines.append("rm -f " + " ".join(pipe_edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _assign_fifo_names(
    graph: DataflowGraph, directory: str, prefix: str, stdin_path: str
) -> Dict[int, str]:
    """Map each edge to the path used in the emitted script."""
    names: Dict[int, str] = {}
    for edge_id in sorted(graph.edges):
        edge = graph.edges[edge_id]
        if edge.kind is EdgeKind.PIPE:
            names[edge_id] = f"{prefix}_{edge_id}"
        elif edge.kind is EdgeKind.FILE:
            names[edge_id] = edge.name or f"{directory}/pash_file_{edge_id}"
        elif edge.kind is EdgeKind.STDIN:
            names[edge_id] = stdin_path
        else:  # STDOUT
            names[edge_id] = "/dev/stdout"
    return names


def _output_producers(graph: DataflowGraph) -> List[DFGNode]:
    """Nodes that produce the graph's outputs (the ones ``wait`` blocks on)."""
    producers = []
    for edge in graph.output_edges():
        if edge.source is not None:
            producers.append(graph.node(edge.source))
    return producers


def _emit_node(
    node: DFGNode, graph: DataflowGraph, fifo_names: Dict[int, str], runtime_command: str
) -> str:
    inputs = [fifo_names[edge_id] for edge_id in node.inputs]
    outputs = [fifo_names[edge_id] for edge_id in node.outputs]
    output_redirect = _output_redirect(node, graph, fifo_names)

    if isinstance(node, CommandNode):
        base = _command_text(node)
        operands = _file_operands(node)
        if operands:  # `md5sum a -`: only `-` reads a stream (the operands are the inputs, in order)
            inputs = [fifo_names[edge] for operand, edge in zip(operands, node.inputs) if operand == "-"]
        if len(inputs) == 0:
            return f"{base}{output_redirect}"
        if len(inputs) == 1:
            return f"{base} < {inputs[0]}{output_redirect}"
        return f"{base} {' '.join(inputs)}{output_redirect}"

    if isinstance(node, FusedStage):
        # A fused stateless chain is exactly a shell pipeline: no FIFOs
        # between its members, one background job for the whole stage.
        stages = [_command_text(member) for member in node.nodes]
        if inputs:
            stages[0] = f"{stages[0]} < {inputs[0]}"
        return f"{' | '.join(stages)}{output_redirect}"

    if isinstance(node, CatNode):
        return f"cat {' '.join(inputs)}{output_redirect}"

    if isinstance(node, SplitNode):
        return f"{runtime_command} split {' '.join(outputs)} < {inputs[0]}"

    if isinstance(node, RelayNode):
        mode = "blocking" if node.blocking else "eager"
        return f"{runtime_command} eager --mode {mode} < {inputs[0]}{output_redirect}"

    if isinstance(node, AggregatorNode):
        if node.aggregator == "merge_sort":
            flags = " ".join(quote_argument(a) for a in node.command_arguments if a != "-m")
            rendered = f"sort -m {flags}".strip()
            return f"{rendered} {' '.join(inputs)}{output_redirect}"
        if node.aggregator == "concat":
            return f"cat {' '.join(inputs)}{output_redirect}"
        flags = " ".join(quote_argument(a) for a in node.command_arguments)
        suffix = f" -- {flags}" if flags else ""
        return (
            f"{runtime_command} agg {node.aggregator} {' '.join(inputs)}"
            f"{suffix}{output_redirect}"
        )

    raise ValueError(f"cannot emit node of kind {node.kind!r}")


def _file_operands(node: CommandNode) -> List[str]:
    """The argv's operands when they name the inputs: operands read as ``files`` stay in it (``md5sum`` prints them)."""
    record = shared_standard_library().lookup(node.name)
    specs = [spec for clause in (record.clauses if record else []) for spec in clause.assignment.inputs]
    return parse_argv(node.name, node.arguments).operands if any(spec.kind == "files" for spec in specs) else []


def _command_text(node: CommandNode) -> str:
    """Render a command invocation (name plus quoted arguments)."""
    rendered_arguments = " ".join(quote_argument(argument) for argument in node.arguments)
    return node.name if not rendered_arguments else f"{node.name} {rendered_arguments}"


def _output_redirect(node: DFGNode, graph: DataflowGraph, fifo_names: Dict[int, str]) -> str:
    if not node.outputs:
        return ""
    if len(node.outputs) > 1:
        # Only split nodes have several outputs, and they name them directly.
        return ""
    edge = graph.edge(node.outputs[0])
    path = fifo_names[edge.edge_id]
    if edge.kind is EdgeKind.STDOUT:
        return ""
    operator = ">>" if edge.append else ">"
    return f" {operator} {path}"
