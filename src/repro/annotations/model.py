"""Annotation records: how a command's flags determine its parallelizability.

An :class:`AnnotationRecord` holds an ordered list of :class:`Clause` objects.
Each clause has a predicate over the command's options and, when the predicate
matches, an assignment ``(class, inputs, outputs)``.  The first matching
clause wins; a final ``otherwise`` clause provides the default (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.annotations.classes import ParallelizabilityClass
from repro.commands.argv import ParsedArgv, parse_argv


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


@dataclass
class CommandInvocation:
    """A concrete command invocation: name plus expanded arguments.

    Its options and operands are the command's one parse of its argv
    (:func:`repro.commands.argv.parse_argv`), so a flag's value is never
    mistaken for a file operand; an option outside the command's spec raises
    :class:`~repro.commands.base.CommandError`.
    """

    name: str
    arguments: List[str] = field(default_factory=list)

    @property
    def argv(self) -> ParsedArgv:
        return parse_argv(self.name, self.arguments)

    def input_operands(self, specs: Sequence["IOSpec"]) -> Tuple[List[str], List[str]]:
        """The operands ``specs`` name as input files, and the arguments without
        them (but ``files``): each is dropped by its position, so a pattern equal
        to a file name stays."""
        argv, chosen, dropped = self.argv, [], set()
        for spec in specs:
            for index in spec.operand_indices(len(argv.operands)):
                chosen.append(argv.operands[index])
                if spec.kind != "files":
                    dropped.add(argv.positions[index])
        remaining = [argument for position, argument in enumerate(self.arguments) if position not in dropped]
        return chosen, remaining


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class for option predicates."""

    def matches(self, invocation: CommandInvocation) -> bool:
        raise NotImplementedError


@dataclass
class OptionPresent(Predicate):
    """Matches when a flag is present in the invocation."""

    flag: str

    def matches(self, invocation: CommandInvocation) -> bool:
        return invocation.argv.has(self.flag)


@dataclass
class OptionValueEquals(Predicate):
    """Matches when a flag has a specific value (``value -d =`` form)."""

    flag: str
    value: str

    def matches(self, invocation: CommandInvocation) -> bool:
        return invocation.argv.value(self.flag) == self.value


@dataclass
class Not(Predicate):
    """Negation of another predicate."""

    inner: Predicate

    def matches(self, invocation: CommandInvocation) -> bool:
        return not self.inner.matches(invocation)


@dataclass
class And(Predicate):
    """Conjunction of predicates."""

    left: Predicate
    right: Predicate

    def matches(self, invocation: CommandInvocation) -> bool:
        return self.left.matches(invocation) and self.right.matches(invocation)


@dataclass
class Or(Predicate):
    """Disjunction of predicates."""

    left: Predicate
    right: Predicate

    def matches(self, invocation: CommandInvocation) -> bool:
        return self.left.matches(invocation) or self.right.matches(invocation)


@dataclass
class Otherwise(Predicate):
    """The catch-all predicate; always matches."""

    def matches(self, invocation: CommandInvocation) -> bool:
        return True


@dataclass
class NoOptions(Predicate):
    """Matches when the invocation carries no options at all."""

    def matches(self, invocation: CommandInvocation) -> bool:
        return not invocation.argv.pairs


# ---------------------------------------------------------------------------
# Input/output specifications
# ---------------------------------------------------------------------------


@dataclass
class IOSpec:
    """A symbolic reference to one of a command's inputs or outputs.

    ``kind`` is one of ``stdin``, ``stdout``, ``arg`` (single operand index),
    ``args`` (an operand slice) or ``files`` (an operand slice whose names
    stay in the argument vector: ``md5sum`` prints them).  Indices refer to
    *operands*, i.e. the non-flag arguments, mirroring the paper's
    ``args[i]`` notation.
    """

    kind: str
    index: Optional[int] = None
    start: Optional[int] = None
    end: Optional[int] = None

    STDIN = None  # type: ignore[assignment]
    STDOUT = None  # type: ignore[assignment]

    @classmethod
    def stdin(cls) -> "IOSpec":
        return cls("stdin")

    @classmethod
    def stdout(cls) -> "IOSpec":
        return cls("stdout")

    @classmethod
    def arg(cls, index: int) -> "IOSpec":
        return cls("arg", index=index)

    @classmethod
    def args_slice(cls, start: Optional[int] = None, end: Optional[int] = None) -> "IOSpec":
        return cls("args", start=start, end=end)

    def operand_indices(self, count: int) -> List[int]:
        """The indices, among ``count`` operands, of the operands this spec names
        (none for ``stdin``/``stdout``)."""
        if self.kind == "arg":
            assert self.index is not None
            return [self.index] if self.index < count else []
        if self.kind in ("args", "files"):
            return list(range(count))[self.start : self.end]
        return []

    def __str__(self) -> str:
        if self.kind == "stdin":
            return "stdin"
        if self.kind == "stdout":
            return "stdout"
        if self.kind == "arg":
            return f"args[{self.index}]"
        start = "" if self.start is None else str(self.start)
        end = "" if self.end is None else str(self.end)
        return f"args[{start}:{end}]"


IOSpec.STDIN = IOSpec.stdin()
IOSpec.STDOUT = IOSpec.stdout()


# ---------------------------------------------------------------------------
# Clauses and records
# ---------------------------------------------------------------------------


@dataclass
class Assignment:
    """The result of a matching clause."""

    parallelizability: ParallelizabilityClass
    inputs: List[IOSpec] = field(default_factory=lambda: [IOSpec.stdin()])
    outputs: List[IOSpec] = field(default_factory=lambda: [IOSpec.stdout()])


@dataclass
class Clause:
    """One guarded assignment of an annotation record."""

    predicate: Predicate
    assignment: Assignment


@dataclass
class AnnotationRecord:
    """The complete annotation of one command."""

    command: str
    clauses: List[Clause] = field(default_factory=list)
    #: Optional name of the aggregator used to merge partial outputs when the
    #: command is parallelized in the pure class (e.g. ``sort`` -> ``merge_sort``).
    aggregator: Optional[str] = None
    #: Optional name of a map-stage replacement command (defaults to the
    #: command itself, i.e. the command is its own map function).
    map_command: Optional[str] = None
    #: Operand indices that are *configuration* inputs replicated to every
    #: parallel copy instead of being split (e.g. grep's pattern argument).
    configuration_operands: Tuple[int, ...] = ()

    def classify(self, invocation: CommandInvocation) -> Assignment:
        """Return the assignment of the first clause matching ``invocation``."""
        for clause in self.clauses:
            if clause.predicate.matches(invocation):
                return clause.assignment
        # Without a matching clause, be conservative.
        return Assignment(ParallelizabilityClass.SIDE_EFFECTFUL, [], [])

    def parallelizability(self, invocation: CommandInvocation) -> ParallelizabilityClass:
        """Shortcut returning only the class for ``invocation``."""
        return self.classify(invocation).parallelizability


def classify_invocation(
    record: Optional[AnnotationRecord], invocation: CommandInvocation
) -> ParallelizabilityClass:
    """Classify an invocation, defaulting to side-effectful when unannotated.

    This is the conservative default of §5.1: commands with no annotation are
    never parallelized.
    """
    if record is None:
        return ParallelizabilityClass.SIDE_EFFECTFUL
    return record.parallelizability(invocation)


def simple_record(
    command: str,
    parallelizability: ParallelizabilityClass,
    inputs: Optional[Sequence[IOSpec]] = None,
    outputs: Optional[Sequence[IOSpec]] = None,
    aggregator: Optional[str] = None,
    configuration_operands: Tuple[int, ...] = (),
) -> AnnotationRecord:
    """Build a record with a single ``otherwise`` clause."""
    assignment = Assignment(
        parallelizability,
        list(inputs) if inputs is not None else [IOSpec.stdin()],
        list(outputs) if outputs is not None else [IOSpec.stdout()],
    )
    return AnnotationRecord(
        command,
        [Clause(Otherwise(), assignment)],
        aggregator=aggregator,
        configuration_operands=configuration_operands,
    )
