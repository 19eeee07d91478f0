"""Span exporters: Chrome ``trace_event`` JSON and a flat JSONL span log.

The Chrome format (loadable in Perfetto / ``chrome://tracing``) maps each
:class:`~repro.obs.tracer.SpanRecord` to one complete duration event
(``"ph": "X"``) on the track of the OS process that executed it — so a traced
parallel run shows the compile phases on the driver's track and every node's
execution on its worker's track, with ``args`` carrying the span's counters
and parent link.  ``tools/check_trace.py`` validates exported files against
this schema (span nesting, pid/tid sanity).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, TextIO, Union

from repro.obs.tracer import SpanRecord

#: Track names keyed by whether the pid hosted compile-side or worker spans.
_PROCESS_LABELS = {True: "pash driver", False: "pash worker"}

#: Span categories recorded by the driver process (everything else is a
#: worker-side category).
_DRIVER_CATEGORIES = {"parse", "pass", "jit", "scheduler", "engine", "service"}


def chrome_trace_events(spans: Iterable[SpanRecord]) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for a set of spans (metadata rows included)."""
    events: List[Dict[str, Any]] = []
    driver_pids = set()
    worker_pids = set()
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_us,
                "dur": span.duration_us,
                "pid": span.pid,
                "tid": span.tid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
        (driver_pids if span.category in _DRIVER_CATEGORIES else worker_pids).add(span.pid)
    for pid in sorted(driver_pids | worker_pids):
        label = _PROCESS_LABELS[pid in driver_pids]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{label} {pid}"},
            }
        )
    return events


def chrome_trace_document(spans: Iterable[SpanRecord]) -> Dict[str, Any]:
    """The full Chrome ``trace_event`` JSON object."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def export_chrome_trace(spans: Iterable[SpanRecord], destination: Union[str, TextIO]) -> None:
    """Write the Chrome trace JSON to a path or open text file."""
    document = chrome_trace_document(spans)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    else:
        json.dump(document, destination, indent=1)
        destination.write("\n")


def export_jsonl(spans: Iterable[SpanRecord], destination: Union[str, TextIO]) -> None:
    """Write one flat JSON object per span (grep/jq-friendly log form)."""
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            export_jsonl(spans, handle)
        return
    for span in spans:
        destination.write(json.dumps(span.to_dict(), sort_keys=True))
        destination.write("\n")


def span_summary(spans: Iterable[SpanRecord]) -> Dict[str, Any]:
    """A flat, scalar-only digest of a span set (string keys, scalar values):
    the ``spans`` section of a :class:`~repro.obs.report.RunReport`."""
    total = 0
    per_category_us: Dict[str, int] = {}
    per_category_count: Dict[str, int] = {}
    for span in spans:
        total += 1
        per_category_us[span.category] = (
            per_category_us.get(span.category, 0) + span.duration_us
        )
        per_category_count[span.category] = per_category_count.get(span.category, 0) + 1
    summary: Dict[str, Any] = {"spans_total": total}
    for category in sorted(per_category_us):
        summary[f"span_count_{category}"] = per_category_count[category]
        summary[f"span_seconds_{category}"] = round(per_category_us[category] / 1e6, 6)
    return summary
