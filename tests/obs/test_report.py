"""RunReport: the merged machine-readable document, and the end-to-end flow."""

import json

from repro.api import Pash, PashConfig
from repro.obs import RUN_REPORT_SCHEMA, RunReport
from repro.obs.tracer import SpanRecord
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem


def environment():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(
            {
                "a.txt": ["alpha foo", "beta"],
                "b.txt": ["gamma foo", "delta foo"],
            }
        )
    )


def test_empty_report_has_stable_shape():
    document = RunReport().to_dict()
    assert document["schema"] == RUN_REPORT_SCHEMA
    assert sorted(document) == [
        "backend", "compilation", "config", "elapsed_seconds",
        "jit", "metrics", "schema", "span_records", "spans",
    ]
    json.dumps(document)


def test_from_run_merges_result_compiled_and_spans():
    config = PashConfig.paper_default(2, backend="parallel", tracing=True)
    with Pash(config) as pash:
        compiled = pash.compile("cat a.txt b.txt | grep foo | sort > out.txt")
        result = compiled.execute(environment=environment())
    report = RunReport.from_run(result, compiled=compiled)
    document = report.to_dict()
    json.dumps(document)  # fully JSON-able

    assert document["backend"] == "parallel"
    assert document["elapsed_seconds"] > 0
    assert document["metrics"]["backend"] == "parallel"
    assert document["metrics"]["nodes"], "per-node metrics present"
    assert document["jit"]["regions_seen"] == 1  # every script run has a driver report
    assert document["compilation"]["stats"]["regions_found"] == 1
    assert len(document["compilation"]["regions"]) == 1
    assert "pass_seconds" in document["compilation"]["regions"][0]
    assert document["config"]["tracing"] is True
    assert document["spans"]["spans_total"] == len(result.spans) > 0
    assert document["span_records"][0]["span_id"]


def test_from_run_with_jit_result_includes_jit_section():
    # Worker and scheduler spans need the pool: "auto" would stay in-process.
    config = PashConfig.paper_default(
        2, backend="jit", tracing=True, jit_inner_backend="parallel"
    )
    with Pash(config) as pash:
        compiled = pash.compile("cat a.txt b.txt | grep foo | sort > out.txt")
        result = compiled.execute(environment=environment())
    document = RunReport.from_run(result, compiled=compiled).to_dict()
    assert document["backend"] == "jit"
    assert document["jit"]["regions_seen"] == 1
    assert document["jit"]["outcomes"][0]["action"] in ("compiled", "cached")
    # Worker spans made it through the report queue into the run's span set.
    categories = {record["category"] for record in document["span_records"]}
    assert "worker" in categories and "scheduler" in categories and "jit" in categories


def test_explicit_spans_override_result_spans():
    spans = [SpanRecord(name="only", category="engine", span_id="x.1")]
    report = RunReport.from_run(result=None, spans=spans)
    assert report.spans["spans_total"] == 1
    assert report.span_records[0]["name"] == "only"
