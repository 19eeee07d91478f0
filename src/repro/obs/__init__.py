"""``repro.obs`` — the tracing + metrics observability plane.

One :class:`Tracer` threads through every layer of a run — parse, optimizer
passes, JIT decisions, scheduler phases, pool/fork workers — recording
pickle-safe :class:`SpanRecord`\\ s that exporters turn into a Chrome
``trace_event`` JSON (Perfetto-loadable), a flat JSONL span log, or a merged
machine-readable :class:`RunReport`.  Off by default and near-free when off:
see ``docs/OBSERVABILITY.md``.

The *continuous* half (the service tier's): a :class:`MetricsRegistry` of
counters/gauges/bounded histograms that the daemon builds as a view over
the objects that already keep the numbers (:mod:`repro.service.telemetry`),
exposed as Prometheus text (:func:`prometheus_text`,
:class:`MetricsServer`), a JSONL :class:`EventLog`, and the live
``pash-top`` console.  :class:`TraceSampler` plus the tracer's ``max_spans``
ring buffer keep tracing viable forever in a daemon.
"""

from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    span_summary,
)
from repro.obs.expose import (
    EVENT_SCHEMA,
    NULL_EVENTS,
    EventLog,
    MetricsServer,
    prometheus_text,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.report import RUN_REPORT_SCHEMA, RunReport
from repro.obs.sampler import TraceSampler
from repro.obs.tracer import (
    NULL_TRACER,
    SpanRecord,
    TraceContext,
    Tracer,
    new_span_id,
    record_worker_span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_EVENTS",
    "NULL_TRACER",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "SpanRecord",
    "TraceContext",
    "TraceSampler",
    "Tracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "new_span_id",
    "prometheus_text",
    "record_worker_span",
    "span_summary",
]
