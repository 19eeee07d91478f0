"""Optimization knob enums and the per-graph optimization report.

:class:`EagerMode` and :class:`SplitMode` name the §4.2 knobs that
:class:`repro.api.PashConfig` combines into the configurations evaluated in
Fig. 7:

* ``Par + Split`` — eager relays and the general (counting) split,
* ``Par + B.Split`` — eager relays and the input-aware (blocking-free) split,
* ``Parallel`` — eager relays, no split (only existing concatenations are
  commuted),
* ``Blocking Eager`` — relays that buffer but only in blocking mode,
* ``No Eager`` — neither relays nor split.

The transformations themselves live in :mod:`repro.transform.passes` as an
ordered pipeline of named passes, driven through the ``repro.api`` front door
(``Pash.compile`` / ``repro.api.optimize``).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List


class EagerMode(enum.Enum):
    """How relay nodes buffer data."""

    NONE = "none"
    BLOCKING = "blocking"
    EAGER = "eager"


class SplitMode(enum.Enum):
    """Which split implementation (if any) is inserted by transformation t2."""

    NONE = "none"
    GENERAL = "general"
    INPUT_AWARE = "input-aware"


@dataclass
class OptimizationReport:
    """What the optimizer did to one graph."""

    parallelized_commands: List[str] = field(default_factory=list)
    skipped_commands: List[str] = field(default_factory=list)
    inserted_splits: int = 0
    inserted_relays: int = 0
    #: Number of stateless chains collapsed by the ``fuse-stages`` pass.
    fused_stages: int = 0
    compile_time_seconds: float = 0.0
    #: Wall time spent in each pass, in pipeline order (pass name -> seconds).
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Freeform annotations for registered (non-default) passes to leave
    #: their findings in (see docs/PASSES.md).
    notes: str = ""

    @property
    def parallelized_count(self) -> int:
        return len(self.parallelized_commands)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON schema: the dataclass fields plus ``parallelized_count``."""
        return dict(dataclasses.asdict(self), parallelized_count=self.parallelized_count)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OptimizationReport":
        """The report :meth:`to_dict` wrote (``parallelized_count`` is derived)."""
        names = {report_field.name for report_field in dataclasses.fields(cls)}
        return cls(**{name: value for name, value in payload.items() if name in names})
