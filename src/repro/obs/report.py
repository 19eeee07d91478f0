"""``RunReport`` — one machine-readable document for one run.

Today the numbers a run produces are scattered across live dataclasses:
:class:`~repro.engine.metrics.EngineMetrics` (per-node counters),
:class:`~repro.jit.report.JitReport` (region decisions), and per-region
:class:`~repro.transform.pipeline.OptimizationReport`\\ s (pass timings).
``RunReport`` merges them — plus the recorded spans — into one
``to_dict()``-stable JSON document, surfaced by the CLI's ``--metrics-json``
and consumable by the benchmark trajectory, dashboards, and the future
cluster/daemon reporting planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.export import span_summary
from repro.obs.tracer import SpanRecord

#: Bumped whenever a key is renamed or removed (additions are compatible).
RUN_REPORT_SCHEMA = 1


@dataclass
class RunReport:
    """The merged, serializable outcome of one compile-and-run."""

    backend: str = ""
    elapsed_seconds: float = 0.0
    #: ``EngineMetrics.to_dict()`` of the run (empty dict when absent).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: ``JitReport.to_dict()`` of a script run; ``None`` for the result of
    #: one bare graph (``repro.engine.run``).
    jit: Optional[Dict[str, Any]] = None
    #: Compilation-side numbers: ``CompilationStats.to_dict()`` plus one
    #: ``OptimizationReport.to_dict()`` per region, when a compile happened.
    compilation: Optional[Dict[str, Any]] = None
    #: ``PashConfig.to_dict()`` of the configuration in force, when known.
    config: Optional[Dict[str, Any]] = None
    #: Flat per-category span digest (``span_summary``); always present.
    spans: Dict[str, Any] = field(default_factory=dict)
    #: Full span rows (``SpanRecord.to_dict()``), present when tracing ran.
    span_records: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """The stable JSON document (schema-versioned)."""
        return {
            "schema": RUN_REPORT_SCHEMA,
            "backend": self.backend,
            "elapsed_seconds": self.elapsed_seconds,
            "metrics": self.metrics,
            "jit": self.jit,
            "compilation": self.compilation,
            "config": self.config,
            "spans": self.spans,
            "span_records": self.span_records,
        }

    @classmethod
    def from_run(
        cls,
        result: Any = None,
        compiled: Any = None,
        spans: Optional[List[SpanRecord]] = None,
    ) -> "RunReport":
        """Assemble a report from live objects.

        ``result`` is an :class:`~repro.engine.api.EngineResult` (or the
        :class:`~repro.jit.driver.JitResult` subclass); ``compiled`` is the
        :class:`~repro.api.artifact.CompiledScript` that produced it (for the
        compilation section); ``spans`` defaults to ``result.spans``.
        """
        report = cls()
        if result is not None:
            report.backend = getattr(result, "backend", "")
            report.elapsed_seconds = getattr(result, "elapsed_seconds", 0.0)
            metrics = getattr(result, "metrics", None)
            if metrics is not None:
                report.metrics = metrics.to_dict()
            jit = getattr(result, "jit", None)
            if jit is not None:
                report.jit = jit.to_dict()
            if spans is None:
                spans = list(getattr(result, "spans", []) or [])
        if compiled is not None:
            report.compilation = {
                "stats": compiled.stats.to_dict(),
                "regions": [region.to_dict() for region in compiled.reports],
            }
            if compiled.config is not None:
                report.config = compiled.config.to_dict()
        spans = spans or []
        report.spans = span_summary(spans)
        report.span_records = [span.to_dict() for span in spans]
        return report
