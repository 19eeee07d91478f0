"""``JitReport`` — what the JIT driver did to one script run.

Every region candidate the driver reaches is recorded: whether it was
compiled fresh, served from the plan cache, or fell back to the sequential
interpreter (and why).  The report is the observability surface the
acceptance tests and the CLI's ``--report`` read.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class RegionOutcome:
    """One region occurrence, in execution order."""

    #: Structural fingerprint (see :func:`repro.dfg.regions.region_fingerprint`).
    fingerprint: str
    #: The region's shell text (for diagnostics).
    text: str
    #: ``"compiled"`` | ``"cached"`` | ``"fallback"``.
    action: str
    #: Why the region fell back (empty for compiled/cached regions).
    reason: str = ""
    #: Wall time spent executing the region (any path).
    elapsed_seconds: float = 0.0
    #: Wall time spent inside the compiler for this occurrence (0 on hits).
    compile_seconds: float = 0.0
    #: Wall time spent sizing this execution: stat-ing the inputs, the
    #: planner's simulations, and compiling whatever shape it asked to see or
    #: picked (that part is in ``compile_seconds`` too).  0 = nothing planned.
    plan_seconds: float = 0.0
    #: True when the fallback decision itself came from the negative cache.
    cached_failure: bool = False
    #: The width the region ran at: 1 = its sequential graph on the
    #: in-process executor, N = N-wide on the pool, 0 = it fell back.
    width: int = 0
    #: What the region planner sized this execution from, and its two
    #: predictions (all zero unless ``jit_inner_backend="auto"`` planned it).
    input_lines: int = 0
    predicted_sequential_seconds: float = 0.0
    predicted_parallel_seconds: float = 0.0
    #: True when the planner compiled no pool shape: the figure above is the
    #: floor under all of them, and the sequential prediction was within it.
    parallel_is_floor: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """Stable flat-JSON schema: exactly the dataclass fields."""
        return dataclasses.asdict(self)


@dataclass
class JitReport:
    """Aggregate outcome of one JIT-driven script run."""

    outcomes: List[RegionOutcome] = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def regions_seen(self) -> int:
        """Region occurrences reached at runtime (loop bodies count per iteration)."""
        return len(self.outcomes)

    @property
    def regions_compiled(self) -> int:
        """Occurrences that triggered a fresh compilation."""
        return sum(1 for outcome in self.outcomes if outcome.action == "compiled")

    @property
    def cache_hits(self) -> int:
        """Occurrences served straight from the plan cache."""
        return sum(1 for outcome in self.outcomes if outcome.action == "cached")

    @property
    def fallbacks(self) -> int:
        """Occurrences executed by the sequential interpreter instead."""
        return sum(1 for outcome in self.outcomes if outcome.action == "fallback")

    @property
    def regions_inline(self) -> int:
        """Occurrences that ran at width 1, in-process."""
        return sum(1 for outcome in self.outcomes if outcome.width == 1)

    @property
    def compile_seconds(self) -> float:
        """Total wall time spent compiling across the run."""
        return sum(outcome.compile_seconds for outcome in self.outcomes)

    @property
    def plan_seconds(self) -> float:
        """Total wall time spent deciding widths across the run."""
        return sum(outcome.plan_seconds for outcome in self.outcomes)

    def fallback_reasons(self) -> Dict[str, int]:
        """Histogram of why regions fell back (reason -> occurrences)."""
        return dict(
            Counter(
                outcome.reason
                for outcome in self.outcomes
                if outcome.action == "fallback"
            )
        )

    def record(self, outcome: RegionOutcome) -> None:
        self.outcomes.append(outcome)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON schema: per-occurrence rows plus the derived aggregates."""
        return {
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "regions_seen": self.regions_seen,
            "regions_compiled": self.regions_compiled,
            "cache_hits": self.cache_hits,
            "fallbacks": self.fallbacks,
            "regions_inline": self.regions_inline,
            "compile_seconds": self.compile_seconds,
            "plan_seconds": self.plan_seconds,
            "fallback_reasons": self.fallback_reasons(),
        }

    def decisions(self, limit: int = 20) -> List[str]:
        """One line per planned region: the width and the two predictions."""
        planned = [
            (index, outcome)
            for index, outcome in enumerate(self.outcomes)
            if outcome.predicted_sequential_seconds
        ]
        lines = [
            f"region {index} width {outcome.width}: {outcome.input_lines} lines, predicted "
            f"{outcome.predicted_sequential_seconds * 1000:.1f} ms in-process vs "
            f"{'≥ ' if outcome.parallel_is_floor else ''}"
            f"{outcome.predicted_parallel_seconds * 1000:.1f} ms on the pool"
            for index, outcome in planned[:limit]
        ]
        if len(planned) > limit:
            lines.append(f"... and {len(planned) - limit} more planned regions")
        return lines

    def summary(self) -> str:
        """One-line digest (used by the CLI's ``--report``)."""
        digest = (
            f"jit: {self.regions_seen} regions seen, "
            f"{self.regions_compiled} compiled, "
            f"{self.cache_hits} cache hits, "
            f"{self.fallbacks} fell back, "
            f"{self.regions_inline} inline"
        )
        timings = [
            f"{layer} {seconds * 1000:.1f} ms"
            for layer, seconds in (("compile", self.compile_seconds), ("plan", self.plan_seconds))
            if seconds
        ]
        if timings:
            digest += f" ({', '.join(timings)})"
        reasons = self.fallback_reasons()
        if reasons:
            top = sorted(reasons.items(), key=lambda item: -item[1])[:3]
            digest += "; top fallback reasons: " + ", ".join(
                f"{reason!r} x{count}" for reason, count in top
            )
        return digest
