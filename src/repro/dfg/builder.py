"""AST → DFG translation (§5.1).

The builder turns each candidate region (a pipeline or a single command) into
a dataflow graph.  The translation is deliberately conservative: any command
without an annotation, any argument whose value is not statically known, and
any redirection outside the supported subset causes the region to be
rejected, leaving the original script fragment untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.streams import VirtualFileSystem

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.library import AnnotationLibrary, standard_library
from repro.annotations.model import CommandInvocation
from repro.commands.base import CommandError
from repro.dfg.edges import Edge, EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import CommandNode
from repro.dfg.regions import (
    ParallelizableRegion,
    RegionCandidate,
    find_parallelizable_regions,
)
from repro.shell.ast_nodes import Command, Node, Pipeline, Redirection
from repro.shell.expansion import ExpansionContext, ExpansionError, expand_pathnames, expand_word
from repro.shell.parser import parse


class UntranslatableRegion(ValueError):
    """Raised when a region cannot be translated to a DFG."""


#: Commands that generate output without consuming stdin; every other
#: command without file operands gets an implicit stdin edge.
GENERATOR_COMMANDS = frozenset({"seq", "echo", "yes", "fetch-station", "fetch-page"})


@dataclass
class TranslationResult:
    """Output of :func:`translate_script`.

    ``regions`` holds the successfully translated regions in program order;
    ``rejected`` records the candidates left untouched together with the
    reason, which the CLI surfaces in verbose mode.
    """

    ast: Node
    regions: List[ParallelizableRegion] = field(default_factory=list)
    rejected: List[Tuple[RegionCandidate, str]] = field(default_factory=list)
    #: Assignment-only statements, in program order.  These are *state
    #: updates*, not dataflow regions: they bind (or, when their value is
    #: dynamic, unbind) variables in the expansion context and stay in the
    #: emitted script verbatim, so they are not "rejected" and do not block
    #: engine execution.
    assignments: List[RegionCandidate] = field(default_factory=list)

    @property
    def parallelizable_command_count(self) -> int:
        """Number of data-parallelizable command nodes across all regions."""
        total = 0
        for region in self.regions:
            for node in region.dfg.nodes.values():
                if isinstance(node, CommandNode) and node.parallelizability().is_data_parallelizable:
                    total += 1
        return total


class DFGBuilder:
    """Builds dataflow graphs from AST fragments."""

    def __init__(
        self,
        library: Optional[AnnotationLibrary] = None,
        context: Optional[ExpansionContext] = None,
        filesystem: Optional["VirtualFileSystem"] = None,
    ) -> None:
        self.library = library if library is not None else standard_library()
        self.context = context if context is not None else ExpansionContext()
        #: When set, unquoted glob patterns in command words are resolved
        #: against this filesystem (the JIT driver passes the live VFS so
        #: ``cat *.txt`` compiles to the same inputs the interpreter reads).
        #: The AOT path leaves it None: patterns stay literal, matching the
        #: historical conservative behaviour.
        self.filesystem = filesystem
        #: True when any expanded field contained a glob metacharacter —
        #: such regions depend on filesystem state and must not be cached.
        self.saw_glob = False

    # ------------------------------------------------------------------
    # Region-level entry points
    # ------------------------------------------------------------------

    def build_region(self, candidate: RegionCandidate) -> ParallelizableRegion:
        """Translate a candidate region, raising on failure."""
        graph = self.build_from_node(candidate.node)
        graph.validate()
        return ParallelizableRegion(candidate, graph)

    def build_from_node(self, node: Node) -> DataflowGraph:
        """Translate a pipeline or single command into a DFG."""
        if isinstance(node, Pipeline):
            return self.build_from_pipeline(node)
        if isinstance(node, Command):
            return self.build_from_pipeline(Pipeline([node]))
        raise UntranslatableRegion(f"cannot translate node of type {type(node).__name__}")

    def build_from_script(self, source: str) -> DataflowGraph:
        """Parse ``source`` (a single pipeline) and translate it."""
        ast = parse(source)
        return self.build_from_node(ast)

    # ------------------------------------------------------------------
    # Pipeline translation
    # ------------------------------------------------------------------

    def build_from_pipeline(self, pipeline: Pipeline) -> DataflowGraph:
        if pipeline.negated:
            raise UntranslatableRegion("negated pipelines are not parallelized")
        graph = DataflowGraph()
        incoming: Optional[Edge] = None

        for index, element in enumerate(pipeline.commands):
            if not isinstance(element, Command):
                raise UntranslatableRegion(
                    f"pipeline element {index} is a {type(element).__name__}, not a simple command"
                )
            is_last = index == len(pipeline.commands) - 1
            incoming = self._add_command(graph, element, incoming, is_last)
        return graph

    def _add_command(
        self,
        graph: DataflowGraph,
        command: Command,
        incoming: Optional[Edge],
        is_last: bool,
    ) -> Optional[Edge]:
        """Add one command node; returns the edge feeding the next stage."""
        if command.assignments:
            raise UntranslatableRegion("assignments are not part of dataflow regions")

        argv = self._expand_argv(command)
        if not argv:
            raise UntranslatableRegion("empty command after expansion")
        name, arguments = argv[0], argv[1:]

        record = self.library.lookup(name)
        if record is None:
            raise UntranslatableRegion(f"command {name!r} has no annotation")
        invocation = CommandInvocation(name, arguments)
        try:
            assignment = record.classify(invocation)
            # The node keeps the options plus any operands that were not converted
            # into edges (e.g. grep's pattern, sed's script, head's count).
            operand_inputs, kept_arguments = invocation.input_operands(assignment.inputs)
        except CommandError as exc:  # an option outside the command's spec: refused, not guessed at
            raise UntranslatableRegion(str(exc)) from exc
        parallelizability = assignment.parallelizability
        if parallelizability is ParallelizabilityClass.SIDE_EFFECTFUL:
            raise UntranslatableRegion(f"command {name!r} is side-effectful under these flags")

        input_redirect, output_redirect = self._split_redirections(command)

        node = CommandNode(
            name=name,
            parallelizability_class=parallelizability,
            aggregator=record.aggregator,
        )
        graph.add_node(node)

        # ------------------------------------------------------------------
        # Inputs
        # ------------------------------------------------------------------
        node.arguments = kept_arguments
        uses_stdin = any(spec.kind == "stdin" for spec in assignment.inputs)

        if input_redirect is not None and incoming is not None:
            raise UntranslatableRegion(
                f"command {name!r} has both a pipe input and an input redirection"
            )
        if operand_inputs:
            for filename in operand_inputs:
                if filename == "-":
                    # The conventional "-" operand names the command's stdin:
                    # the pipe or the ``<`` target, read by the first "-".
                    if incoming is not None:
                        edge, incoming = incoming, None
                    elif input_redirect is not None:
                        edge = graph.add_edge(kind=EdgeKind.FILE, name=input_redirect)
                        input_redirect = None
                    else:
                        edge = graph.add_edge(kind=EdgeKind.STDIN, name="stdin")
                    graph.attach_input(node, edge)
                    continue
                edge = graph.add_edge(kind=EdgeKind.FILE, name=filename)
                graph.attach_input(node, edge)
            # Mid-pipeline commands that read only files ignore the incoming
            # pipe; that would silently drop data, so reject such regions.
            if incoming is not None:
                raise UntranslatableRegion(
                    f"command {name!r} reads file operands while consuming a pipe"
                )
        elif input_redirect is not None:
            edge = graph.add_edge(kind=EdgeKind.FILE, name=input_redirect)
            graph.attach_input(node, edge)
        elif incoming is not None:
            graph.attach_input(node, incoming)
        elif uses_stdin or name not in GENERATOR_COMMANDS:
            edge = graph.add_edge(kind=EdgeKind.STDIN, name="stdin")
            graph.attach_input(node, edge)

        # ------------------------------------------------------------------
        # Outputs
        # ------------------------------------------------------------------
        if output_redirect is not None:
            target, append = output_redirect
            edge = graph.add_edge(kind=EdgeKind.FILE, name=target)
            edge.append = append
            graph.attach_output(node, edge)
            if not is_last:
                raise UntranslatableRegion(
                    f"command {name!r} redirects stdout but is not the last pipeline stage"
                )
            return None
        if is_last:
            edge = graph.add_edge(kind=EdgeKind.STDOUT, name="stdout")
            graph.attach_output(node, edge)
            return None
        edge = graph.add_edge(kind=EdgeKind.PIPE)
        graph.attach_output(node, edge)
        return edge

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _expand_argv(self, command: Command) -> List[str]:
        argv: List[str] = []
        for word in command.words:
            try:
                fields = expand_word(word, self.context)
            except ExpansionError as exc:
                raise UntranslatableRegion(str(exc)) from exc
            argv.extend(expand_pathnames(word, fields, self._glob))
        return argv

    def _glob(self, pattern: str) -> List[str]:
        """A glob pattern's matches (JIT mode only: in AOT mode there is no
        filesystem, so the pattern stays literal)."""
        self.saw_glob = True
        if self.filesystem is None:
            return []
        return self.filesystem.glob(pattern)

    def _split_redirections(
        self, command: Command
    ) -> Tuple[Optional[str], Optional[Tuple[str, bool]]]:
        """Return (input file, (output file, append)) from the redirections."""
        input_file: Optional[str] = None
        output: Optional[Tuple[str, bool]] = None
        for redirection in command.redirections:
            target_text = self._redirection_target(redirection)
            if redirection.operator == "<":
                input_file = target_text
            elif redirection.operator in (">", ">>"):
                output = (target_text, redirection.operator == ">>")
            else:
                raise UntranslatableRegion(
                    f"unsupported redirection {redirection.operator!r}"
                )
        return input_file, output

    def _redirection_target(self, redirection: Redirection) -> str:
        if redirection.target is None:
            raise UntranslatableRegion("redirection without a target")
        try:
            fields = expand_word(redirection.target, self.context)
        except ExpansionError as exc:
            raise UntranslatableRegion(str(exc)) from exc
        if len(fields) != 1:
            raise UntranslatableRegion("redirection target expands to multiple fields")
        return fields[0]


def translate_script(
    source_or_ast,
    library: Optional[AnnotationLibrary] = None,
    context: Optional[ExpansionContext] = None,
) -> TranslationResult:
    """Find and translate every parallelizable region of a script.

    Accepts either shell text or an already-parsed AST.  Regions that fail to
    translate are recorded (with the reason) and left untouched.
    """
    ast = parse(source_or_ast) if isinstance(source_or_ast, str) else source_or_ast
    builder = DFGBuilder(library, context)
    result = TranslationResult(ast)

    # Candidates arrive in program order, so assignments and loop-variable
    # bindings update the context exactly when the script would execute
    # them: regions *before* an assignment (or loop) never see its value,
    # regions after it do (the conservative counterpart of the shell's
    # dynamic scoping).
    from repro.dfg.regions import iter_region_candidates

    for candidate in iter_region_candidates(
        ast, on_loop=lambda loop: _apply_loop_binding(loop, builder.context)
    ):
        node = candidate.node
        if isinstance(node, Command) and node.assignments and not node.words:
            _apply_assignments(node, candidate, builder.context)
            result.assignments.append(candidate)
            continue
        try:
            region = builder.build_region(candidate)
        except (UntranslatableRegion, Exception) as exc:  # noqa: BLE001 - conservative by design
            if not isinstance(exc, UntranslatableRegion):
                reason = f"internal translation failure: {exc}"
            else:
                reason = str(exc)
            result.rejected.append((candidate, reason))
            continue
        result.regions.append(region)
    return result


def _apply_assignments(
    node: Command, candidate: RegionCandidate, context: ExpansionContext
) -> None:
    """Fold one assignment statement into the expansion context.

    Only assignments on the unconditional top-level path bind a value:
    anything under a loop, conditional, ``&&``/``||`` arm, or subshell may or
    may not run (or runs repeatedly), so its targets are *unbound* — later
    regions referencing them are left sequential rather than miscompiled.
    Dynamic values (command substitutions, unknown variables) unbind too.
    """
    from repro.shell.expansion import try_expand_word

    unconditional = all(element.startswith(";") for element in candidate.path)
    for assignment in node.assignments:
        fields = try_expand_word(assignment.value, context) if unconditional else None
        if fields is None:
            context.unbind(assignment.name)
        else:
            context.bind(assignment.name, " ".join(fields))


def _apply_loop_binding(loop, context: ExpansionContext) -> None:
    """Fold a ``for`` loop's variable into the context at loop entry.

    Loop variables take unknown values at compile time; bind the sole
    literal item when exactly one exists (single-iteration analyses stay
    possible) and *unbind* otherwise — a stale earlier binding must not
    leak into the body.  Called in program order (see
    :func:`repro.dfg.regions.iter_region_candidates`), so regions before
    the loop never see its variable.
    """
    if len(loop.items) == 1:
        value = loop.items[0].literal_text()
        if value is not None:
            context.bind(loop.variable, value)
            return
    context.unbind(loop.variable)
