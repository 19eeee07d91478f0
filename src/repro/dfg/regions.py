"""Parallelizable-region detection (§5.1).

Parallelizable regions are maximal program sub-expressions that the POSIX
standard already allows to execute independently: pipelines and
``&``-composed commands.  Sequencing (``;``), the logical operators (``&&``,
``||``), and control flow (``for``, ``while``, ``if``) are barriers: regions
never extend across them, although the translation recurses *into* their
bodies to find further regions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterator, List, Optional

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
)
from repro.shell.unparser import unparse


@dataclass
class RegionCandidate:
    """A candidate region found by the structural walk.

    ``node`` is the Pipeline/Command AST node; ``background`` records whether
    the region was composed with ``&``; ``path`` describes where in the tree
    the candidate sits (useful for diagnostics and for loop-aware workload
    accounting).
    """

    node: Node
    background: bool = False
    path: List[str] = field(default_factory=list)

    @property
    def commands(self) -> List[Command]:
        if isinstance(self.node, Pipeline):
            return [cmd for cmd in self.node.commands if isinstance(cmd, Command)]
        if isinstance(self.node, Command):
            return [self.node]
        return []


@dataclass
class ParallelizableRegion:
    """A candidate region plus its DFG translation.

    The DFG is attached by :mod:`repro.dfg.builder`; a candidate that the
    builder rejects (unknown commands, dynamic arguments, unsupported
    redirections) never becomes a :class:`ParallelizableRegion` and is left
    untouched in the output script.
    """

    candidate: RegionCandidate
    dfg: "DataflowGraph" = None  # type: ignore[assignment]

    @property
    def node(self) -> Node:
        return self.candidate.node


def iter_region_candidates(
    node: Node,
    path: Optional[List[str]] = None,
    on_loop: Optional[Callable[[ForLoop], None]] = None,
) -> Iterator[RegionCandidate]:
    """Yield candidate regions beneath ``node`` without crossing barriers.

    ``on_loop`` (optional) is called with each :class:`ForLoop` at the
    moment the walk *enters* it — i.e. after every candidate textually
    before the loop and before any candidate of its body — so callers
    maintaining an expansion context (the AOT translator) can bind loop
    variables in program order.
    """
    path = path or []
    if isinstance(node, (Pipeline, Command)):
        yield RegionCandidate(node, path=list(path))
        return
    if isinstance(node, BackgroundNode):
        for candidate in iter_region_candidates(node.body, path + ["&"], on_loop):
            candidate.background = True
            yield candidate
        return
    if isinstance(node, SequenceNode):
        for index, part in enumerate(node.parts):
            yield from iter_region_candidates(part, path + [f";{index}"], on_loop)
        return
    if isinstance(node, AndOr):
        # &&/|| are barriers: each side is scanned independently.
        for index, part in enumerate(node.parts):
            yield from iter_region_candidates(part, path + [f"&&{index}"], on_loop)
        return
    if isinstance(node, (Subshell, BraceGroup)):
        yield from iter_region_candidates(node.body, path + ["group"], on_loop)
        return
    if isinstance(node, ForLoop):
        if on_loop is not None:
            on_loop(node)
        yield from iter_region_candidates(
            node.body, path + [f"for:{node.variable}"], on_loop
        )
        return
    if isinstance(node, WhileLoop):
        # The loop condition is control logic; only the body is scanned.
        yield from iter_region_candidates(node.body, path + ["while"], on_loop)
        return
    if isinstance(node, IfClause):
        yield from iter_region_candidates(node.then_body, path + ["then"], on_loop)
        if node.else_body is not None:
            yield from iter_region_candidates(node.else_body, path + ["else"], on_loop)
        return
    # Unknown node types are barriers.
    return


def find_parallelizable_regions(node: Node) -> List[RegionCandidate]:
    """Return all candidate regions in the AST, in program order."""
    return list(iter_region_candidates(node))


def loop_nesting_depth(candidate: RegionCandidate) -> int:
    """How many loops enclose the candidate (used by workload accounting)."""
    return sum(1 for element in candidate.path if element.startswith("for:") or element == "while")


# ---------------------------------------------------------------------------
# Region fingerprinting (the JIT plan cache's structural key)
# ---------------------------------------------------------------------------


def iter_region_words(node: Node):
    """Yield every :class:`~repro.shell.ast_nodes.Word` the region expands.

    Covers command words, assignment values, and redirection targets — the
    complete set of places a variable reference or command substitution can
    influence what the region compiles to.
    """
    from repro.shell.ast_nodes import iter_commands

    for command in iter_commands(node):
        for assignment in command.assignments:
            yield assignment.value
        yield from command.words
        for redirection in command.redirections:
            if redirection.target is not None:
                yield redirection.target


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def region_fingerprint(node: Node) -> str:
    """A stable structural fingerprint of a region's AST.

    Two regions with the same shell text share a fingerprint (the same loop
    body reached on every iteration trivially does), so the JIT plan cache
    can reuse a compiled plan whenever the referenced runtime bindings also
    match.
    """
    return _fingerprint(unparse(node))


def referenced_parameters(node: Node):
    """The parameter names a region's expansion depends on.

    Returns ``(names, has_substitution)``: ``names`` is a frozenset of every
    parameter the region references (including the variables mentioned
    inside ``${VAR:-default}`` words), and ``has_substitution`` records
    whether any word contains a command substitution — such regions can be
    JIT-compiled but never cached, because the substitution's output is not
    part of the cache key.
    """
    from repro.shell.ast_nodes import CommandSubstitution, ParameterPart
    from repro.shell.expansion import parameter_references

    names = set()
    has_substitution = False
    for word in iter_region_words(node):
        for part in word.parts:
            if isinstance(part, ParameterPart):
                names.update(parameter_references(part.name))
            elif isinstance(part, CommandSubstitution):
                has_substitution = True
    return frozenset(names), has_substitution


@dataclass(frozen=True)
class RegionFacts:
    """What the JIT driver needs of a region node that only the node decides.

    All of it is a function of the AST node alone, so a loop body reached a
    thousand times, or a script run a thousand times from one memoised parse
    (:meth:`repro.jit.cache.PlanCache.script`), is walked once.
    """

    #: Held so the ``id(node)`` the facts are filed under stays taken.
    node: Node
    #: The region's shell text, and its :func:`region_fingerprint`.
    text: str
    fingerprint: str
    #: :func:`referenced_parameters`.
    names: FrozenSet[str]
    has_substitution: bool


def region_facts(node: Node) -> RegionFacts:
    """Unparse and walk ``node`` once for everything :class:`RegionFacts` holds."""
    text = unparse(node)
    names, has_substitution = referenced_parameters(node)
    return RegionFacts(node, text, _fingerprint(text), names, has_substitution)
