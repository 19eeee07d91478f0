"""Exporters: Chrome trace_event JSON, the JSONL span log, span summaries."""

import io
import json
import pathlib
import sys

import pytest

from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    span_summary,
)
from repro.obs.tracer import SpanRecord

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))
from check_trace import TraceError, check_trace  # noqa: E402


def spans():
    return [
        SpanRecord(
            name="engine:run", category="scheduler", span_id="a.1",
            pid=100, tid=1, start_us=1_000, duration_us=900,
        ),
        SpanRecord(
            name="node:grep", category="worker", span_id="b.1", parent_id="a.1",
            pid=200, tid=2, start_us=1_100, duration_us=300,
            attributes={"bytes_in": 42},
        ),
    ]


def test_chrome_events_carry_spans_and_metadata_tracks():
    events = chrome_trace_events(spans())
    complete = [event for event in events if event["ph"] == "X"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert len(complete) == 2
    assert complete[0] == {
        "name": "engine:run", "cat": "scheduler", "ph": "X",
        "ts": 1_000, "dur": 900, "pid": 100, "tid": 1,
        "args": {"span_id": "a.1", "parent_id": None},
    }
    assert complete[1]["args"]["bytes_in"] == 42
    assert complete[1]["args"]["parent_id"] == "a.1"
    # One process_name row per pid; driver vs worker labels by category.
    names = {event["pid"]: event["args"]["name"] for event in metadata}
    assert names == {100: "pash driver 100", 200: "pash worker 200"}


def test_chrome_document_is_perfetto_shaped_and_validates():
    document = chrome_trace_document(spans())
    assert document["displayTimeUnit"] == "ms"
    assert check_trace(document) == 2
    json.dumps(document)  # JSON-able end to end


def test_export_chrome_trace_writes_valid_file(tmp_path):
    path = tmp_path / "trace.json"
    export_chrome_trace(spans(), str(path))
    with open(path) as handle:
        assert check_trace(json.load(handle)) == 2


def test_check_trace_rejects_structural_violations():
    document = chrome_trace_document(spans())
    with pytest.raises(TraceError, match="no complete"):
        check_trace({"traceEvents": []})
    # A child escaping its parent's window by more than the epsilon.
    bad = json.loads(json.dumps(document))
    for event in bad["traceEvents"]:
        if event.get("args", {}).get("span_id") == "b.1":
            event["ts"] = 10_000_000
    with pytest.raises(TraceError, match="escapes its parent"):
        check_trace(bad)
    # Duplicate span ids.
    bad = json.loads(json.dumps(document))
    events = [event for event in bad["traceEvents"] if event["ph"] == "X"]
    events[1]["args"]["span_id"] = events[0]["args"]["span_id"]
    with pytest.raises(TraceError, match="duplicate span_id"):
        check_trace(bad)


def test_export_jsonl_one_row_per_span():
    buffer = io.StringIO()
    export_jsonl(spans(), buffer)
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [row["name"] for row in rows] == ["engine:run", "node:grep"]
    assert rows[1]["attributes"] == {"bytes_in": 42}


def test_span_summary_is_flat_and_scalar():
    summary = span_summary(spans())
    assert summary == {
        "spans_total": 2,
        "span_count_scheduler": 1,
        "span_seconds_scheduler": 0.0009,
        "span_count_worker": 1,
        "span_seconds_worker": 0.0003,
    }
    assert all(isinstance(value, (int, float)) for value in summary.values())


def test_check_trace_accepts_the_coordinators_own_lane():
    """A ``node:`` span in the driver's own pid and thread is the inline lane:
    under ``engine:run``, between dispatch and collection, never inside a phase."""

    def trace(node_parent="a.1", node_start=1_300):
        return chrome_trace_document(
            [
                SpanRecord(name="engine:run", category="scheduler", span_id="a.1",
                           pid=100, tid=1, start_us=1_000, duration_us=900),
                SpanRecord(name="scheduler:dispatch", category="scheduler", span_id="a.2",
                           parent_id="a.1", pid=100, tid=1, start_us=1_100, duration_us=100),
                SpanRecord(name="node:sort", category="worker", span_id="a.3",
                           parent_id=node_parent, pid=100, tid=1, start_us=node_start, duration_us=200),
                SpanRecord(name="scheduler:collect", category="scheduler", span_id="a.4",
                           parent_id="a.1", pid=100, tid=1, start_us=1_500, duration_us=300),
                SpanRecord(name="node:sort", category="worker", span_id="b.1",
                           parent_id="a.1", pid=200, tid=2, start_us=1_150, duration_us=600),
            ]
        )

    assert check_trace(trace()) == 5
    with pytest.raises(TraceError, match="not under its engine:run"):
        check_trace(trace(node_parent="a.4", node_start=1_550))
    with pytest.raises(TraceError, match="inside scheduler:collect"):
        check_trace(
            chrome_trace_document(
                [
                    SpanRecord(name="engine:run", category="scheduler", span_id="a.1",
                               pid=100, tid=1, start_us=1_000, duration_us=20_000),
                    SpanRecord(name="scheduler:collect", category="scheduler", span_id="a.4",
                               parent_id="a.1", pid=100, tid=1, start_us=1_100, duration_us=19_000),
                    SpanRecord(name="node:sort", category="worker", span_id="a.3",
                               parent_id="a.1", pid=100, tid=1, start_us=8_000, duration_us=1_000),
                ]
            )
        )
