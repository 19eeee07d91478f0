"""The standard annotation library (PaSh's "data-parallel standard library").

The library maps command names to :class:`AnnotationRecord` objects.  It
covers the POSIX/GNU commands exercised by the paper's evaluation plus the
custom commands of the web-indexing use case (§6.4).  Records either come
from the textual DSL (for flag-sensitive commands, mirroring the paper's
example for ``comm``) or are built programmatically for the simple cases.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Iterable, List, Optional

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.dsl import parse_annotations
from repro.annotations.model import (
    AnnotationRecord,
    CommandInvocation,
    IOSpec,
    classify_invocation,
    simple_record,
)

S = ParallelizabilityClass.STATELESS
P = ParallelizabilityClass.PARALLELIZABLE_PURE
N = ParallelizabilityClass.NON_PARALLELIZABLE_PURE
E = ParallelizabilityClass.SIDE_EFFECTFUL


class AnnotationLibrary:
    """A queryable collection of annotation records."""

    def __init__(self, records: Optional[Iterable[AnnotationRecord]] = None) -> None:
        self._records: Dict[str, AnnotationRecord] = {}
        for record in records or ():
            self.register(record)

    # -- registration --------------------------------------------------------

    def register(self, record: AnnotationRecord) -> None:
        """Add or replace the record for a command."""
        self._records[record.command] = record

    def register_many(self, records: Iterable[AnnotationRecord]) -> None:
        for record in records:
            self.register(record)

    def register_dsl(self, text: str) -> None:
        """Register records written in the Appendix-A DSL."""
        self.register_many(parse_annotations(text))

    # -- queries --------------------------------------------------------------

    def __contains__(self, command: str) -> bool:
        return command in self._records

    def __len__(self) -> int:
        return len(self._records)

    def commands(self) -> Iterable[str]:
        return sorted(self._records)

    def lookup(self, command: str) -> Optional[AnnotationRecord]:
        """Return the record for ``command`` (basename-insensitive), or None."""
        if command in self._records:
            return self._records[command]
        basename = command.rsplit("/", 1)[-1]
        return self._records.get(basename)

    def classify(self, command: str, arguments: Optional[Iterable[str]] = None) -> ParallelizabilityClass:
        """Classify a command invocation, defaulting to side-effectful."""
        invocation = CommandInvocation(command, list(arguments or []))
        return classify_invocation(self.lookup(command), invocation)

    def io_spec(self, command: str, arguments: Optional[Iterable[str]] = None):
        """Return the (inputs, outputs) assignment for an invocation."""
        record = self.lookup(command)
        invocation = CommandInvocation(command, list(arguments or []))
        if record is None:
            return [], []
        assignment = record.classify(invocation)
        return assignment.inputs, assignment.outputs

    def aggregator_for(self, command: str) -> Optional[str]:
        """Name of the aggregator used when parallelizing ``command``."""
        record = self.lookup(command)
        return record.aggregator if record else None

    def copy(self) -> "AnnotationLibrary":
        return AnnotationLibrary(self._records.values())


# ---------------------------------------------------------------------------
# Standard records
# ---------------------------------------------------------------------------


_FLAG_SENSITIVE_DSL = r"""
comm {
| otherwise => (P, [args[0], args[1]], [stdout])
}
cat {
| -n => (N, [args[0:]], [stdout])
| -b => (N, [args[0:]], [stdout])
| otherwise => (S, [args[0:]], [stdout])
}
tr {
| -s => (P, [stdin], [stdout])
| otherwise => (S, [stdin], [stdout])
}
uniq {
| -d => (N, [args[0:1]], [stdout])
| -u => (N, [args[0:1]], [stdout])
| -f => (N, [args[0:1]], [stdout])
| -s => (N, [args[0:1]], [stdout])
| -w => (N, [args[0:1]], [stdout])
| -c => (P, [args[0:1]], [stdout])
| otherwise => (P, [args[0:1]], [stdout])
}
wc {
| otherwise => (P, [args[0:]], [stdout])
}
head {
| otherwise => (P, [args[0:]], [stdout])
}
tail {
| otherwise => (P, [args[0:]], [stdout])
}
paste {
| -s => (N, [args[0:]], [stdout])
| otherwise => (P, [args[0:]], [stdout])
}
grep {
| -e /\ -c => (P, [args[0:]], [stdout])
| -e /\ -n => (N, [args[0:]], [stdout])
| -e => (S, [args[0:]], [stdout])
| -c => (P, [args[1:]], [stdout])
| -n => (N, [args[1:]], [stdout])
| otherwise => (S, [args[1:]], [stdout])
}
sed {
| -n => (E, [stdin], [stdout])
| -e => (S, [args[0:]], [stdout])
| otherwise => (S, [args[1:]], [stdout])
}
xargs {
| value -n = "1" => (S, [stdin], [stdout])
| otherwise => (N, [stdin], [stdout])
}
sort {
| -m => (N, [args[0:]], [stdout])
| otherwise => (P, [args[0:]], [stdout])
}
"""


def _stateless(names: Iterable[str]) -> Iterable[AnnotationRecord]:
    for name in names:
        yield simple_record(name, S)


def _build_records() -> Dict[str, AnnotationRecord]:
    records: Dict[str, AnnotationRecord] = {}

    def add(record: AnnotationRecord) -> None:
        records[record.command] = record

    # Flag-sensitive commands from the DSL.
    for record in parse_annotations(_FLAG_SENSITIVE_DSL):
        add(record)

    # Stateless commands: pure map/filter over lines.
    stateless_names = [
        "basename",
        "dirname",
        "fmt",
        "gunzip",
        "gzip",
        "head_stream",  # internal helper used by split pipelines
        "iconv",
        "nl_strip",
        "tee_devnull",
        "unexpand",
        "url-extract",
        "word-stem",
        "html-to-text",
        "strip-punct",
        "lowercase",
        "bigrams",
    ]
    for record in _stateless(stateless_names):
        add(record)
    # Stateless filters whose operands are the files they read.
    for name in ("col", "cut", "expand", "fold", "rev"):
        add(simple_record(name, S, inputs=[IOSpec.args_slice(0)]))

    # grep's pattern operand is a configuration input replicated to all copies;
    # its only pure variant (-c) is merged by summing the partial counts.
    records["grep"].configuration_operands = (0,)
    records["grep"].aggregator = "sum"

    # Parallelizable pure commands with their aggregators.
    add(simple_record("tac", P, inputs=[IOSpec.args_slice(0)], aggregator="merge_tac"))
    add(simple_record("top", P, aggregator="merge_head"))
    add(simple_record("shuf", P, aggregator="concat"))

    # ``sort -m`` merges its inputs as they are: merging unsorted lanes is
    # not the sequential merge, so only a plain sort gets copies.
    records["sort"].aggregator = "merge_sort"
    records["cat"].aggregator = "concat"
    records["tr"].aggregator = "squeeze_concat"
    records["uniq"].aggregator = "merge_uniq"
    records["wc"].aggregator = "merge_wc"
    records["comm"].aggregator = "merge_comm"
    records["head"].aggregator = "merge_head"
    records["tail"].aggregator = "merge_tail"

    # Non-parallelizable pure commands.
    for name in ("cksum", "sum"):
        add(simple_record(name, N))
    for name in ("sha1sum", "sha256sum", "md5sum", "b2sum"):  # one ``HASH  NAME`` line per file
        add(simple_record(name, N, inputs=[IOSpec("files", start=0)]))
    add(
        simple_record(
            "diff", N, inputs=[IOSpec.arg(0), IOSpec.arg(1)], outputs=[IOSpec.stdout()]
        )
    )

    # Side-effectful commands (never parallelized).
    for name in (
        "curl",
        "wget",
        "cp",
        "mv",
        "rm",
        "mkdir",
        "mkfifo",
        "env",
        "date",
        "whoami",
        "uname",
        "finger",
        "chmod",
        "chown",
        "dd",
        "df",
        "du",
        "ln",
        "ls",
        "ps",
        "kill",
        "touch",
        "tee",
        "python",
        "node",
        "file",
        "find",
        "read",
        "echo",
        "printf",
        "test",
        "[",
        "set",
        "export",
        "cd",
        "wait",
        "trap",
        "eval",
    ):
        add(simple_record(name, E))
    # awk's program is its first operand; the files follow it.
    add(simple_record("awk", E, inputs=[IOSpec.args_slice(1)]))

    return records


#: The standard records, parsed from the DSL once per process.
_STANDARD_RECORDS: List[AnnotationRecord] = []


def standard_library() -> AnnotationLibrary:
    """Return a fresh copy of the standard annotation library.

    Every shell interpreter, JIT driver and DFG builder constructs one, so
    the DSL is tokenised and parsed on the first call only; each call hands
    out its own record objects (and clause lists), so registering or editing
    a record in one library never shows in the next.
    """
    if not _STANDARD_RECORDS:
        _STANDARD_RECORDS.extend(_build_records().values())
    return AnnotationLibrary(
        dataclasses.replace(record, clauses=list(record.clauses))
        for record in _STANDARD_RECORDS
    )


@functools.lru_cache(maxsize=1)
def shared_standard_library() -> AnnotationLibrary:
    """One standard library for callers that only look records up: never edit it."""
    return standard_library()


#: Aggregator names known to the runtime (see repro.runtime.aggregators).
KNOWN_AGGREGATORS = (
    "concat",
    "squeeze_concat",
    "merge_sort",
    "merge_uniq",
    "merge_uniq_count",
    "merge_wc",
    "merge_tac",
    "merge_head",
    "merge_tail",
    "merge_comm",
    "sum",
)
