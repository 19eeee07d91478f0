"""Safe word expansion.

PaSh expands the subset of shell words whose value it can determine
statically — literal text, parameters with known values, and brace ranges —
and refuses to expand anything else (command substitutions, unknown
variables).  Refusal is signalled with :class:`ExpansionError` so the caller
can fall back to conservative, unparallelized treatment (§5.1).

The JIT driver (:mod:`repro.jit`) relaxes "statically" to "at the moment the
region is reached": it builds an :class:`ExpansionContext` from the *runtime*
shell state, so special parameters (``$?``, ``$#``, ``$@``/``$*``),
default-value forms (``${VAR:-default}``), and — through ``command_runner`` —
even command substitutions become expandable exactly when the surrounding
script supplies their values.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.shell.ast_nodes import CommandSubstitution, LiteralPart, ParameterPart, Word


class ExpansionError(ValueError):
    """Raised when a word cannot be expanded with the information available."""


_BRACE_RANGE_RE = re.compile(r"\{(-?\d+)\.\.(-?\d+)\}")
_BRACE_LIST_RE = re.compile(r"\{([^{}.]*,[^{}]*)\}")

#: ``${name<op>word}`` — the POSIX parameter default-value forms.  The lexer
#: stores everything between the braces as the parameter "name", so the
#: operator is recognized here at expansion time.
_PARAM_FORM_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*|[@*#?0-9])(:?[-=+?])(.*)$", re.DOTALL
)

#: ``$NAME`` / ``${NAME}`` occurrences inside a default-value word.
_DEFAULT_REF_RE = re.compile(r"\$(?:\{([^}]+)\}|([A-Za-z_][A-Za-z0-9_]*|[@*#?0-9]))")

_SPECIAL_PARAMETERS = frozenset("@*#?") | frozenset("0123456789")

_GLOB_CHARS = ("*", "?", "[")


class ExpansionContext:
    """Holds the variable bindings known to the expander.

    The context is deliberately simple: a flat string-to-string mapping plus a
    flag recording whether unknown variables should expand to the empty string
    (interactive-shell behaviour) or abort expansion (PaSh's conservative
    compile-time behaviour).

    Four optional pieces of *runtime* state extend the static mapping:

    * ``positional`` — the positional parameters backing ``$1``…, ``$#``,
      ``$@`` and ``$*`` (``None`` = unknown, so strict mode refuses them);
    * ``last_status`` — the value of ``$?`` (``None`` = unknown);
    * ``command_runner`` — a callable evaluating a command-substitution body
      to its captured stdout text; without one, ``$(...)`` always refuses;
    * ``complete`` — the mapping holds *every* set variable (runtime state),
      so a missing name is genuinely **unset** rather than merely unknown.
      This is what lets strict mode evaluate ``${VAR:-default}``: with an
      incomplete (compile-time) mapping, "absent" cannot be told apart from
      "assigned dynamically earlier", and choosing the default would
      miscompile — so strict+incomplete refuses instead.

    When ``variables`` is passed as a plain ``dict`` it is **adopted by
    reference** (so ``${VAR:=default}`` assignments persist into the
    caller's state, as POSIX requires); other mappings are copied.
    """

    def __init__(
        self,
        variables: Optional[Dict[str, str]] = None,
        strict: bool = True,
        positional: Optional[Sequence[str]] = None,
        last_status: Optional[int] = None,
        command_runner: Optional[Callable[[str], str]] = None,
        complete: bool = False,
    ) -> None:
        self.variables: Dict[str, str] = (
            variables if isinstance(variables, dict) else dict(variables or {})
        )
        self.strict = strict
        self.positional: Optional[List[str]] = (
            list(positional) if positional is not None else None
        )
        self.last_status = last_status
        self.command_runner = command_runner
        self.complete = complete

    # ------------------------------------------------------------------

    def lookup(self, name: str) -> str:
        """Return the value bound to ``name`` (including ``${VAR:-...}`` forms).

        Raises :class:`ExpansionError` in strict mode when unknown.
        """
        form = _PARAM_FORM_RE.match(name)
        if form is not None:
            return self._resolve_form(form.group(1), form.group(2), form.group(3))
        return self._resolve_plain(name)

    def bind(self, name: str, value: str) -> None:
        """Record an assignment observed during compilation."""
        self.variables[name] = value

    def unbind(self, name: str) -> None:
        """Forget a binding whose value became unknown (dynamic assignment)."""
        self.variables.pop(name, None)

    def is_set(self, name: str) -> bool:
        """True when the parameter has a (possibly empty) known value."""
        if name in self.variables:
            return True
        if name == "?":
            return self.last_status is not None
        if name in ("#", "@", "*"):
            return self.positional is not None
        if name.isdigit():
            if self.positional is None:
                return False
            index = int(name)
            return 1 <= index <= len(self.positional)
        return False

    def state_known(self, name: str) -> bool:
        """Whether the set-ness of ``name`` is definitively decidable.

        A name present in the mapping is decidedly set; special parameters
        are decidable exactly when their backing runtime state was supplied;
        anything else is only decidable when the mapping is ``complete``.
        """
        if name in self.variables:
            return True
        if name == "?":
            return self.last_status is not None
        if name in ("#", "@", "*") or name.isdigit():
            return self.positional is not None
        return self.complete

    def copy(self) -> "ExpansionContext":
        """Return an independent copy (used when entering loop bodies)."""
        return ExpansionContext(
            dict(self.variables),
            strict=self.strict,
            positional=self.positional,
            last_status=self.last_status,
            command_runner=self.command_runner,
            complete=self.complete,
        )

    # ------------------------------------------------------------------

    def _resolve_plain(self, name: str) -> str:
        if name in self.variables:
            return self.variables[name]
        if name == "?":
            if self.last_status is not None:
                return str(self.last_status)
        elif name == "#":
            if self.positional is not None:
                return str(len(self.positional))
        elif name in ("@", "*"):
            if self.positional is not None:
                return " ".join(self.positional)
        elif name.isdigit():
            if self.positional is not None:
                index = int(name)
                if index == 0:
                    return self.variables.get("0", "")
                if index <= len(self.positional):
                    return self.positional[index - 1]
                return ""
        elif self.strict:
            raise ExpansionError(f"unknown variable ${name}")
        else:
            return ""
        # A special parameter whose runtime state is unknown.
        if self.strict:
            raise ExpansionError(f"unknown special parameter ${name}")
        return ""

    def _resolve_form(self, name: str, operator: str, word: str) -> str:
        """Evaluate one ``${name<op>word}`` default-value form."""
        treat_empty_as_unset = operator.startswith(":")
        base_operator = operator[-1]
        if self.strict and not self.state_known(name):
            # "Absent" only means "unset" when the state is complete; a
            # compile-time mapping cannot tell unset from dynamically
            # assigned, and guessing the default would miscompile.
            raise ExpansionError(
                f"cannot evaluate ${{{name}{operator}...}}: "
                f"variable state unknown at compile time"
            )
        known = self.is_set(name)
        value = self._resolve_plain(name) if known else ""
        use_default = (not known) or (treat_empty_as_unset and value == "")
        if base_operator == "-":
            return self._expand_default(word) if use_default else value
        if base_operator == "=":
            if use_default:
                value = self._expand_default(word)
                if name in _SPECIAL_PARAMETERS:
                    raise ExpansionError(f"cannot assign to special parameter ${name}")
                self.bind(name, value)
            return value
        if base_operator == "+":
            return "" if use_default else self._expand_default(word)
        if base_operator == "?":
            if use_default:
                message = self._expand_default(word) or "parameter not set"
                raise ExpansionError(f"${{{name}}}: {message}")
            return value
        raise ExpansionError(f"unsupported parameter form ${{{name}{operator}{word}}}")

    def _expand_default(self, word: str) -> str:
        """Expand ``$NAME`` references inside a default-value word."""

        def substitute(match: "re.Match[str]") -> str:
            inner = match.group(1) or match.group(2)
            return self.lookup(inner)

        return _DEFAULT_REF_RE.sub(substitute, word)


def expand_word(word: Word, context: Optional[ExpansionContext] = None) -> List[str]:
    """Expand ``word`` into a list of fields.

    Unquoted expansions undergo field splitting on whitespace and brace
    expansion; quoted text is preserved verbatim.  Raises
    :class:`ExpansionError` for command substitutions (unless the context
    carries a ``command_runner``) and (in strict mode) unknown variables.
    """
    context = context or ExpansionContext()

    # `"$@"` expands to one field per positional parameter (and to no field
    # at all when there are none) — the only quoted expansion that splits.
    if (
        len(word.parts) == 1
        and isinstance(word.parts[0], ParameterPart)
        and word.parts[0].quoted
        and word.parts[0].name == "@"
    ):
        if context.positional is None:
            if context.strict:
                raise ExpansionError('unknown special parameter "$@"')
            return []
        return list(context.positional)

    # Field splitting splits only what an unquoted parameter or command
    # substitution produced (POSIX 2.6.5): literal and quoted text joins the
    # field being built, so `-d' '` is one field.  An expansion that leaves
    # nothing opens no field (`for f in $UNSET` runs zero times) unless a
    # quoted part (`""$X`) holds the empty field open.
    fields: List[str] = []
    current: Optional[str] = None  # the field being built, None before one opens
    braces = False
    for part in word.parts:
        if isinstance(part, LiteralPart):
            value = part.text
            braces = braces or (not part.quoted and "{" in value)
        elif isinstance(part, ParameterPart):
            value = context.lookup(part.name)
        elif isinstance(part, CommandSubstitution):
            if context.command_runner is None:
                raise ExpansionError("command substitution cannot be expanded statically")
            # POSIX strips every trailing newline from $(...) output.
            value = context.command_runner(part.text).rstrip("\n")
        else:  # pragma: no cover - defensive
            raise ExpansionError(f"unsupported word part {part!r}")
        if part.quoted or isinstance(part, LiteralPart):
            if value or part.quoted:
                current = (current or "") + value
            continue
        for index, piece in enumerate(value.split()):
            if (index or value[:1].isspace()) and current is not None:
                fields.append(current)
                current = None
            current = (current or "") + piece
        if value[-1:].isspace() and current is not None:
            fields.append(current)
            current = None
    if current is not None:
        fields.append(current)
    if braces:
        fields = [expanded for field in fields for expanded in _expand_braces(field)]
    return fields


def _expand_braces(text: str) -> List[str]:
    """Expand one level of ``{a..b}`` and ``{x,y,z}`` brace patterns."""
    range_match = _BRACE_RANGE_RE.search(text)
    if range_match:
        start, end = int(range_match.group(1)), int(range_match.group(2))
        step = 1 if end >= start else -1
        results = []
        for value in range(start, end + step, step):
            expanded = text[: range_match.start()] + str(value) + text[range_match.end() :]
            results.extend(_expand_braces(expanded))
        return results
    list_match = _BRACE_LIST_RE.search(text)
    if list_match:
        results = []
        for option in list_match.group(1).split(","):
            expanded = text[: list_match.start()] + option + text[list_match.end() :]
            results.extend(_expand_braces(expanded))
        return results
    return [text]


def parameter_references(raw: str):
    """The base parameter names a ``$raw`` reference depends on.

    ``"VAR"`` depends on ``VAR``; ``"VAR:-$OTHER"`` depends on both ``VAR``
    and ``OTHER``.  Used by the JIT plan cache to key compiled plans on the
    referenced runtime bindings.
    """
    form = _PARAM_FORM_RE.match(raw)
    if form is None:
        return {raw}
    references = {form.group(1)}
    for match in _DEFAULT_REF_RE.finditer(form.group(3)):
        inner = match.group(1) or match.group(2)
        references.update(parameter_references(inner))
    return references


def try_expand_word(word: Word, context: Optional[ExpansionContext] = None) -> Optional[List[str]]:
    """Expand ``word`` or return None when the expansion is not static."""
    try:
        return expand_word(word, context)
    except ExpansionError:
        return None


# ---------------------------------------------------------------------------
# Pathname expansion (globbing)
# ---------------------------------------------------------------------------


def word_may_glob(word: Word) -> bool:
    """True when pathname expansion applies to the word's expanded fields.

    Quoting suppresses globbing, so only words with at least one unquoted
    part qualify; the cheap pre-check on literal text avoids pattern matching
    for the overwhelmingly common glob-free words.
    """
    may = False
    for part in word.parts:
        if getattr(part, "quoted", False):
            continue
        if isinstance(part, LiteralPart):
            if any(char in part.text for char in _GLOB_CHARS):
                may = True
        else:
            # The *value* of an unquoted expansion can introduce a pattern.
            may = True
    return may


def field_has_glob(field: str) -> bool:
    """True when a field contains a pathname-expansion metacharacter."""
    return any(char in field for char in _GLOB_CHARS)


def pattern_matches(name: str, pattern: str) -> bool:
    """POSIX pathname-pattern match: case-sensitive, explicit-dot rule.

    Names starting with ``.`` are only matched by patterns that themselves
    start with ``.``.  The single matching rule, used by the in-memory
    filesystem's :meth:`~repro.runtime.streams.VirtualFileSystem.glob`.
    """
    if name.startswith(".") and not pattern.startswith("."):
        return False
    return fnmatchcase(name, pattern)


def expand_pathnames(
    word: Word,
    fields: Iterable[str],
    resolver: Callable[[str], Sequence[str]],
) -> List[str]:
    """Apply pathname expansion to one word's expanded fields.

    ``resolver`` maps a pattern to its matches (typically
    ``VirtualFileSystem.glob``); per POSIX an unmatched pattern stays
    literal, and quoting (checked via :func:`word_may_glob`) suppresses
    expansion entirely.  The single glob driver shared by the interpreter
    and the DFG builder.
    """
    fields = list(fields)
    if not word_may_glob(word):
        return fields
    result: List[str] = []
    for field in fields:
        if field_has_glob(field):
            result.extend(list(resolver(field)) or [field])
        else:
            result.append(field)
    return result
