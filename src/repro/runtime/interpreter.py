"""A small interpreter for the supported shell subset.

The interpreter provides the *sequential baseline*: it executes whole
scripts (sequences, pipelines, loops, conditionals) directly over the
in-memory command implementations, without building any dataflow graph.
PaSh's output is then checked against it, and the JIT driver
(:mod:`repro.jit`) inherits its control-flow semantics wholesale.

Semantics, documented here because they bound what the benchmark scripts
may use:

* Exit statuses exist, but only the control-flow builtins produce nonzero
  ones: ``true``/``:`` (0), ``false`` (1), and ``test``/``[`` (0/1/2).
  Registry commands always succeed with status 0 (their failures raise
  :class:`InterpreterError` instead), so ``&&``/``||``/``if``/``while``
  branch exactly the same way on every backend.
* ``while``/``until`` loops are bounded by ``max_loop_iterations``
  (default 100 000) — a runaway condition raises instead of hanging CI.
* Command substitution ``$(...)`` runs the inner script in a subshell-style
  child interpreter: it shares the virtual filesystem but variable
  assignments inside do not leak out.
* Unquoted words containing ``*``/``?``/``[`` undergo pathname expansion
  against the virtual filesystem (plus the real one, when the VFS allows
  real files); per POSIX an unmatched pattern stays literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.annotations.library import AnnotationLibrary, shared_standard_library, standard_library
from repro.annotations.model import CommandInvocation
from repro.commands import CommandRegistry, standard_registry
from repro.commands.base import Stream
from repro.runtime.streams import VirtualFileSystem
from repro.shell.ast_nodes import (
    AndOr,
    BackgroundNode,
    BraceGroup,
    Command,
    ForLoop,
    IfClause,
    Node,
    Pipeline,
    SequenceNode,
    Subshell,
    WhileLoop,
    Word,
)
from repro.shell.expansion import (
    ExpansionContext,
    ExpansionError,
    expand_pathnames,
    expand_word,
)
from repro.shell.parser import parse


class InterpreterError(RuntimeError):
    """Raised when a script uses constructs the interpreter does not support."""


#: Control-flow builtins executed by the interpreter itself (not the command
#: registry).  They are the only sources of nonzero exit statuses, which
#: keeps `&&`/`if`/`while` branching identical across every backend.
BUILTIN_COMMANDS = frozenset({"true", "false", ":", "test", "["})


@dataclass
class InterpreterState:
    """Mutable state threaded through script execution."""

    variables: Dict[str, str] = field(default_factory=dict)
    filesystem: VirtualFileSystem = field(default_factory=VirtualFileSystem)
    stdout: Stream = field(default_factory=list)
    #: Exit status of the most recently executed command (``$?``).
    last_status: int = 0
    #: Positional parameters backing ``$1``…, ``$#``, ``$@``/``$*``.
    positional: List[str] = field(default_factory=list)


class ShellInterpreter:
    """Executes ASTs of the supported shell subset sequentially."""

    def __init__(
        self,
        filesystem: Optional[VirtualFileSystem] = None,
        variables: Optional[Dict[str, str]] = None,
        registry: Optional[CommandRegistry] = None,
        library: Optional[AnnotationLibrary] = None,
        positional: Optional[Sequence[str]] = None,
        max_loop_iterations: int = 100_000,
    ) -> None:
        self.state = InterpreterState(
            variables=dict(variables or {}),
            # Not `or`: an empty VirtualFileSystem is falsy (it has __len__).
            filesystem=filesystem if filesystem is not None else VirtualFileSystem(),
            positional=list(positional or []),
        )
        self.registry = registry if registry is not None else standard_registry()
        self._library = library
        self.max_loop_iterations = max_loop_iterations

    @property
    def library(self) -> AnnotationLibrary:
        """Its own copy of the standard library, made when first asked for (a run reads the shared one)."""
        if self._library is None:
            self._library = standard_library()
        return self._library

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run_script(self, source: str) -> Stream:
        """Parse and execute ``source``; returns everything written to stdout."""
        return self.run_node(parse(source))

    def run_node(self, node: Node, stdin: Optional[Stream] = None) -> Stream:
        """Execute a node; returns (and records) the lines it wrote to stdout."""
        output = self._execute(node, list(stdin or []))
        self.state.stdout.extend(output)
        return output

    # ------------------------------------------------------------------
    # Node dispatch — every method returns the node's stdout stream and
    # records its exit status in ``state.last_status``
    # ------------------------------------------------------------------

    def _execute(self, node: Node, stdin: Stream) -> Stream:
        if isinstance(node, Command):
            return self._execute_command(node, stdin)
        if isinstance(node, Pipeline):
            return self._execute_pipeline(node, stdin)
        if isinstance(node, SequenceNode):
            output: Stream = []
            for part in node.parts:
                output.extend(self._execute(part, []))
            return output
        if isinstance(node, AndOr):
            output = list(self._execute(node.parts[0], []))
            for operator, part in zip(node.operators, node.parts[1:]):
                succeeded = self.state.last_status == 0
                if (operator == "&&") == succeeded:
                    output.extend(self._execute(part, []))
                # A skipped operand leaves $? at the deciding status.
            return output
        if isinstance(node, BackgroundNode):
            return self._execute(node.body, stdin)
        if isinstance(node, Subshell):
            # Subshells isolate variable state; filesystem effects persist.
            saved = dict(self.state.variables)
            try:
                return self._execute(node.body, stdin)
            finally:
                self.state.variables = saved
        if isinstance(node, BraceGroup):
            return self._execute(node.body, stdin)
        if isinstance(node, ForLoop):
            return self._execute_for(node)
        if isinstance(node, WhileLoop):
            return self._execute_while(node)
        if isinstance(node, IfClause):
            return self._execute_if(node)
        raise InterpreterError(f"cannot interpret node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _execute_for(self, node: ForLoop) -> Stream:
        items: List[str] = []
        context = self._context()
        for word in node.items:
            try:
                items.extend(self._expand_fields(word, context))
            except ExpansionError as exc:
                raise InterpreterError(str(exc)) from exc
        output: Stream = []
        self.state.last_status = 0
        for item in items:
            self.state.variables[node.variable] = item
            output.extend(self._execute(node.body, []))
        return output

    def _execute_while(self, node: WhileLoop) -> Stream:
        output: Stream = []
        iterations = 0
        self.state.last_status = 0
        status = 0
        while True:
            output.extend(self._execute(node.condition, []))
            condition_true = self.state.last_status == 0
            if node.until:
                condition_true = not condition_true
            if not condition_true:
                break
            iterations += 1
            if iterations > self.max_loop_iterations:
                raise InterpreterError(
                    f"while loop exceeded {self.max_loop_iterations} iterations"
                )
            output.extend(self._execute(node.body, []))
            status = self.state.last_status
        # The loop's status is the last body execution's (0 when none ran).
        self.state.last_status = status
        return output

    def _execute_if(self, node: IfClause) -> Stream:
        # Per POSIX the condition's stdout is script output too.
        output = list(self._execute(node.condition, []))
        if self.state.last_status == 0:
            output.extend(self._execute(node.then_body, []))
        elif node.else_body is not None:
            output.extend(self._execute(node.else_body, []))
        else:
            self.state.last_status = 0
        return output

    # ------------------------------------------------------------------
    # Pipelines and commands
    # ------------------------------------------------------------------

    def _execute_pipeline(self, node: Pipeline, stdin: Stream) -> Stream:
        current = list(stdin)
        for element in node.commands:
            if not isinstance(element, (Command, Subshell, BraceGroup)):
                raise InterpreterError("pipelines may only contain simple commands")
            current = self._execute(element, current)
        if node.negated:
            self.state.last_status = 0 if self.state.last_status != 0 else 1
        return current

    def _execute_command(self, node: Command, stdin: Stream) -> Stream:
        context = self._context()

        # Pure assignments.
        if node.assignments and not node.words:
            for assignment in node.assignments:
                try:
                    value_fields = expand_word(assignment.value, context)
                except ExpansionError:
                    value_fields = [""]
                self.state.variables[assignment.name] = " ".join(value_fields)
            self.state.last_status = 0
            return []

        argv: List[str] = []
        for word in node.words:
            try:
                argv.extend(self._expand_fields(word, context))
            except ExpansionError as exc:
                raise InterpreterError(str(exc)) from exc
        if not argv:
            self.state.last_status = 0
            return []
        name, arguments = argv[0], argv[1:]

        if name in BUILTIN_COMMANDS:
            self.state.last_status = self._run_builtin(name, arguments)
            return []

        inputs, remaining_arguments = self._resolve_inputs(name, arguments, stdin, node)
        output = self.registry.run(name, remaining_arguments, inputs)
        self.state.last_status = 0

        # Output redirections swallow the stream.
        for redirection in node.redirections:
            if redirection.operator in (">", ">>") and redirection.target is not None:
                target = " ".join(expand_word(redirection.target, context))
                if redirection.operator == ">":
                    self.state.filesystem.write(target, output)
                else:
                    self.state.filesystem.append(target, output)
                return []
        return output

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------

    def _run_builtin(self, name: str, arguments: List[str]) -> int:
        if name in ("true", ":"):
            return 0
        if name == "false":
            return 1
        if name == "[":
            if not arguments or arguments[-1] != "]":
                raise InterpreterError("[: missing closing ']'")
            arguments = arguments[:-1]
        return self._evaluate_test(arguments)

    def _evaluate_test(self, arguments: List[str]) -> int:
        """POSIX ``test``: 0 = true, 1 = false, 2 = usage error (raised)."""
        if arguments and arguments[0] == "!":
            inner = self._evaluate_test(arguments[1:])
            return 1 if inner == 0 else 0
        if not arguments:
            return 1
        if len(arguments) == 1:
            return 0 if arguments[0] != "" else 1
        if len(arguments) == 2:
            operator, operand = arguments
            if operator == "-n":
                return 0 if operand != "" else 1
            if operator == "-z":
                return 0 if operand == "" else 1
            if operator in ("-e", "-f", "-r"):
                return 0 if self.state.filesystem.exists(operand) else 1
            if operator == "-s":
                try:
                    return 0 if self.state.filesystem.read(operand) else 1
                except FileNotFoundError:
                    return 1
            raise InterpreterError(f"test: unknown unary operator {operator!r}")
        if len(arguments) == 3:
            left, operator, right = arguments
            if operator in ("=", "=="):
                return 0 if left == right else 1
            if operator == "!=":
                return 0 if left != right else 1
            if operator in ("-eq", "-ne", "-lt", "-le", "-gt", "-ge"):
                try:
                    lhs, rhs = int(left), int(right)
                except ValueError as exc:
                    raise InterpreterError(f"test: integer expected: {exc}") from exc
                return (
                    0
                    if {
                        "-eq": lhs == rhs,
                        "-ne": lhs != rhs,
                        "-lt": lhs < rhs,
                        "-le": lhs <= rhs,
                        "-gt": lhs > rhs,
                        "-ge": lhs >= rhs,
                    }[operator]
                    else 1
                )
            raise InterpreterError(f"test: unknown binary operator {operator!r}")
        raise InterpreterError(f"test: too many arguments: {arguments!r}")

    # ------------------------------------------------------------------
    # Expansion helpers
    # ------------------------------------------------------------------

    def _expand_fields(self, word: Word, context: ExpansionContext) -> List[str]:
        """Expand one word into fields, applying pathname expansion."""
        fields = expand_word(word, context)
        return expand_pathnames(word, fields, self.state.filesystem.glob)

    def _run_substitution(self, text: str) -> str:
        """Evaluate one ``$(...)`` body in a subshell-style child interpreter."""
        child = ShellInterpreter(
            filesystem=self.state.filesystem,
            variables=dict(self.state.variables),
            registry=self.registry,
            library=self._library,
            positional=self.state.positional,
            max_loop_iterations=self.max_loop_iterations,
        )
        child.state.last_status = self.state.last_status
        try:
            output = child.run_script(text)
        except InterpreterError as exc:
            raise ExpansionError(f"command substitution failed: {exc}") from exc
        return "\n".join(output)

    def _context(self) -> ExpansionContext:
        # The live variables dict is adopted by reference so ${VAR:=default}
        # assignments persist into interpreter state, as POSIX requires.
        return ExpansionContext(
            self.state.variables,
            strict=False,
            positional=self.state.positional,
            last_status=self.state.last_status,
            command_runner=self._run_substitution,
            complete=True,
        )

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def _resolve_inputs(
        self, name: str, arguments: List[str], stdin: Stream, node: Command
    ):
        """Determine the command's input streams (files, redirection, stdin)."""
        context = self._context()
        library = shared_standard_library() if self._library is None else self._library
        record = library.lookup(name)
        operand_files: List[str] = []
        if record is not None:
            invocation = CommandInvocation(name, arguments)
            operand_files, remaining = invocation.input_operands(record.classify(invocation).inputs)

        input_redirect: Optional[str] = None
        for redirection in node.redirections:
            if redirection.operator == "<" and redirection.target is not None:
                input_redirect = " ".join(expand_word(redirection.target, context))

        if input_redirect is not None:  # the "-" operands read it too
            stdin = self._read_file(input_redirect, stdin)
        if operand_files:
            return [self._read_file(filename, stdin) for filename in operand_files], remaining
        return [list(stdin)], arguments

    def _read_file(self, filename: str, stdin: Stream) -> Stream:
        if filename == "-":
            return list(stdin)
        try:
            return self.state.filesystem.read(filename)
        except FileNotFoundError as exc:
            raise InterpreterError(str(exc)) from exc
