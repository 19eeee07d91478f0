"""JIT orchestration: a stateful script driver compiling regions at runtime.

The AOT pipeline (``repro.api.Pash.compile``) resolves what it can
statically and leaves everything else sequential.  This package holds the
runtime counterpart:

* :class:`~repro.jit.driver.JitDriver` — walks the script AST maintaining
  concrete shell state and JIT-compiles each dataflow region with the
  bindings in force when it is reached;
* :class:`~repro.jit.cache.PlanCache` — compiled plans keyed on (region
  fingerprint, referenced-binding values, config digest), so loop bodies
  compile once;
* :class:`~repro.jit.report.JitReport` — per-run observability: regions
  seen / compiled / cached / fell back, with reasons.

The driver is how *every* backend runs a script
(:func:`repro.api.artifact.execute_script`); ``backend="jit"`` —
``repro.api.run(src, backend="jit")``, ``Pash.run(src, backend="jit")``,
``pash-repro --execute jit`` — lets it size each region from its live input
instead of pinning one engine at the config's width.
"""

from repro.jit.cache import CacheStats, CompiledPlan, FailedPlan, PlanCache, config_digest
from repro.jit.driver import JitDriver, JitResult
from repro.jit.report import JitReport, RegionOutcome

__all__ = [
    "CacheStats",
    "CompiledPlan",
    "FailedPlan",
    "JitDriver",
    "JitReport",
    "JitResult",
    "PlanCache",
    "RegionOutcome",
    "config_digest",
]
