"""Parallelizability classes and the command annotation language (§3).

This package provides:

* :mod:`repro.annotations.classes` — the four parallelizability classes
  (stateless, parallelizable pure, non-parallelizable pure, side-effectful),
* :mod:`repro.annotations.model` — annotation records: per-command clauses
  guarded by flag predicates, mapping an invocation to its class and its
  input/output sequence,
* :mod:`repro.annotations.dsl` — a parser for the textual annotation language
  of Appendix A, and
* :mod:`repro.annotations.library` — the standard annotation library covering
  the POSIX and GNU Coreutils commands used by the evaluation, plus the
  map/aggregate pairs PaSh ships for commands in the pure class.

The parallelizability study behind Table 1 measures this library; it lives
with the rest of the paper's evaluation, in ``benchmarks/paper/study.py``.
"""

from repro.annotations.classes import ParallelizabilityClass
from repro.annotations.model import (
    AnnotationRecord,
    Clause,
    CommandInvocation,
    IOSpec,
    classify_invocation,
)
from repro.annotations.dsl import AnnotationParseError, parse_annotation, parse_annotations
from repro.annotations.library import AnnotationLibrary, standard_library

__all__ = [
    "AnnotationLibrary",
    "AnnotationParseError",
    "AnnotationRecord",
    "Clause",
    "CommandInvocation",
    "IOSpec",
    "ParallelizabilityClass",
    "classify_invocation",
    "parse_annotation",
    "parse_annotations",
    "standard_library",
]
