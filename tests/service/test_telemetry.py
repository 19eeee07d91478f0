"""The daemon's continuous-telemetry plane: atomic job counters, the
versioned stats schema, the metrics protocol message and HTTP endpoint,
the JSONL event log, trace sampling, and span retention."""

import importlib.util
import json
import os
import threading
import urllib.request

import pytest

from repro.api.config import ObsConfig, PashConfig
from repro.service import PashServiceDaemon, ServiceClient, ServiceOptions

_TOOL = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "check_metrics.py"
)


@pytest.fixture(scope="module")
def check_metrics():
    spec = importlib.util.spec_from_file_location("check_metrics", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = "cat data.txt | sort | uniq"
FILES = {"data.txt": ["b", "a", "b", "c"]}


class TestAtomicJobCounters:
    def test_counters_exact_when_hammered_from_n_threads(self, make_daemon):
        """The regression for the old racy ``jobs_completed += 1``: the
        counters now ride the lock-guarded CounterChild, so concurrent
        increments from every executor thread are exact."""
        daemon = make_daemon(executors=0)  # counters only; no execution
        threads_n, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                daemon._jobs_completed.inc()
                daemon._jobs_failed.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert daemon.jobs_completed == threads_n * per_thread
        assert daemon.jobs_failed == threads_n * per_thread

    def test_concurrent_jobs_count_exactly(
        self, make_daemon, client_for, run_with_deadline
    ):
        daemon = make_daemon(executors=4, queue_limit=64, tenant_quota=64)
        client = client_for(daemon)
        jobs_n = 16

        def submit(index):
            return client.submit(SCRIPT, tenant=f"t{index % 4}", files=FILES)

        results = [None] * jobs_n
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(i, submit(i))
            )
            for i in range(jobs_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(job and job["state"] == "done" for job in results)
        assert daemon.jobs_completed == jobs_n
        assert daemon.jobs_failed == 0


class TestStatsSchema:
    def test_schema_3_shape(self, make_daemon, client_for, run_with_deadline):
        daemon = make_daemon(executors=1)
        client = client_for(daemon)
        run_with_deadline(lambda: client.submit(SCRIPT, files=FILES))
        stats = run_with_deadline(client.stats)
        assert stats["schema"] == 3
        assert stats["uptime_seconds"] > 0
        assert stats["jobs"]["completed"] == 1
        assert "pool" in stats  # always present since schema 2
        assert stats["pool"] is None or "workers_replaced" in stats["pool"]
        assert set(stats["plan_cache"]) >= {"hits", "misses", "entries"}
        assert stats["sampler"]["ratio"] == 1.0
        assert set(stats["trace"]) == {"enabled", "spans", "dropped_spans"}
        # Schema 3: the first submit on a connection sends its file inline.
        assert stats["uploads"] == {
            "inline_bytes": 8, "referenced_bytes": 0, "misses": 0, "held_bytes": 0,
        }

    def test_poolless_daemon_reports_pool_none(self, make_daemon, client_for):
        config = PashConfig.paper_default(2, backend="jit", jobs=0)
        daemon = make_daemon(executors=0, config=config)
        assert client_for(daemon).stats()["pool"] is None


class TestMetricsMessage:
    def test_exposition_agrees_with_client_observations(
        self, make_daemon, client_for, run_with_deadline, check_metrics
    ):
        daemon = make_daemon(executors=2, queue_limit=32, tenant_quota=32)
        client = client_for(daemon)
        completed = 0
        for index in range(6):
            job = client.submit(SCRIPT, tenant=f"t{index % 2}", files=FILES)
            if job["state"] == "done":
                completed += 1
        assert completed == 6
        payload = run_with_deadline(client.metrics)
        text = payload["exposition"]
        check_metrics.lint_text(text)
        assert "pash_jobs_completed_total 6" in text
        # Per-tenant histogram counts agree with submissions.
        snapshot = payload["snapshot"]
        entries = snapshot["pash_job_seconds"]["values"]
        by_tenant = {
            entry["labels"]["tenant"]: entry["count"] for entry in entries
        }
        assert by_tenant == {"t0": 3, "t1": 3}
        # The plan-cache family is a view over the cache's own CacheStats.
        cache = snapshot.get("pash_plan_cache_requests_total")
        assert cache is not None
        total = sum(entry["value"] for entry in cache["values"])
        stats = client.stats()["plan_cache"]
        assert total == stats["hits"] + stats["misses"] + stats["negative_hits"]

    def test_rejections_counted_by_reason(
        self, make_daemon, client_for, run_with_deadline
    ):
        from repro.service.admission import ServiceBusy

        daemon = make_daemon(executors=0, queue_limit=1, tenant_quota=1)
        client = client_for(daemon)
        client.submit(SCRIPT, files=FILES, wait=False)
        with pytest.raises(ServiceBusy):
            client.submit(SCRIPT, files=FILES, wait=False)
        snapshot = run_with_deadline(client.metrics)["snapshot"]
        rejections = snapshot["pash_rejections_total"]["values"]
        assert any(
            entry["labels"]["reason"] in ("busy", "quota") and entry["value"] >= 1
            for entry in rejections
        )
        assert snapshot["pash_admissions_total"]["values"][0]["value"] == 1


class TestHttpEndpoint:
    def test_scrape_and_queue_depth_gauge(
        self, make_daemon, client_for, run_with_deadline, check_metrics
    ):
        daemon = make_daemon(executors=1, metrics_port=0)
        client = client_for(daemon)
        run_with_deadline(lambda: client.submit(SCRIPT, files=FILES))
        port = daemon.metrics_server.port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            body = response.read().decode("utf-8")
        check_metrics.lint_text(body)
        assert "pash_jobs_completed_total 1" in body
        assert "pash_queue_depth 0" in body
        assert "pash_uptime_seconds" in body

    def test_endpoint_off_by_default(self, make_daemon):
        daemon = make_daemon(executors=0)
        assert daemon.metrics_server is None

    def test_server_stopped_at_shutdown(self, run_with_deadline):
        options = ServiceOptions(
            listen="127.0.0.1:0",
            executors=0,
            metrics_port=0,
            config=PashConfig.paper_default(2, backend="jit"),
        )
        daemon = PashServiceDaemon(options)
        daemon.start()
        port = daemon.metrics_server.port
        run_with_deadline(daemon.shutdown)
        assert daemon.metrics_server is None
        with pytest.raises(Exception):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=2)


class TestEventLog:
    def test_job_lifecycle_events(
        self, make_daemon, client_for, run_with_deadline, tmp_path
    ):
        path = str(tmp_path / "events.jsonl")
        daemon = make_daemon(executors=1, events_path=path)
        client = client_for(daemon)
        run_with_deadline(lambda: client.submit(SCRIPT, tenant="ev", files=FILES))
        run_with_deadline(daemon.shutdown)
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        events = [record["event"] for record in records]
        assert events[0] == "daemon-started"
        assert "job-admitted" in events
        assert "job-finished" in events
        assert events[-1] == "daemon-stopped"
        finished = next(r for r in records if r["event"] == "job-finished")
        assert finished["tenant"] == "ev"
        assert finished["status"] == "completed"
        assert finished["elapsed_seconds"] > 0
        stopped = records[-1]
        assert stopped["jobs_completed"] == 1

    def test_rejection_event(
        self, make_daemon, client_for, run_with_deadline, tmp_path
    ):
        from repro.service.admission import ServiceBusy

        path = str(tmp_path / "rej.jsonl")
        daemon = make_daemon(
            executors=0, queue_limit=1, tenant_quota=1, events_path=path
        )
        client = client_for(daemon)
        client.submit(SCRIPT, files=FILES, wait=False)
        with pytest.raises(ServiceBusy):
            client.submit(SCRIPT, files=FILES, wait=False)
        with open(path, "r", encoding="utf-8") as handle:
            events = [json.loads(line)["event"] for line in handle]
        assert "job-rejected" in events


class TestSampling:
    def _traced_config(self, **obs):
        return PashConfig.paper_default(
            2, backend="jit", tracing=True, obs=ObsConfig(**obs)
        )

    def test_ratio_zero_records_no_job_spans(
        self, make_daemon, client_for, run_with_deadline
    ):
        daemon = make_daemon(
            executors=1, config=self._traced_config(trace_sample_ratio=0.0)
        )
        client = client_for(daemon)
        run_with_deadline(lambda: client.submit(SCRIPT, files=FILES))
        assert not any(
            span.name == "service:job" for span in daemon.tracer.spans
        )
        assert daemon.sampler.skipped == 1
        assert client.stats()["sampler"]["skipped"] == 1

    def test_ratio_one_records_job_spans(
        self, make_daemon, client_for, run_with_deadline
    ):
        daemon = make_daemon(
            executors=1, config=self._traced_config(trace_sample_ratio=1.0)
        )
        client = client_for(daemon)
        run_with_deadline(lambda: client.submit(SCRIPT, files=FILES))
        assert any(span.name == "service:job" for span in daemon.tracer.spans)
        assert daemon.sampler.sampled == 1

    def test_tenant_override_traces_through_zero_ratio(
        self, make_daemon, client_for, run_with_deadline
    ):
        daemon = make_daemon(
            executors=1,
            config=self._traced_config(
                trace_sample_ratio=0.0, sample_tenants=("vip",)
            ),
        )
        client = client_for(daemon)
        run_with_deadline(
            lambda: client.submit(SCRIPT, tenant="vip", files=FILES)
        )
        vip_spans = [
            span
            for span in daemon.tracer.spans
            if span.name == "service:job"
        ]
        assert vip_spans and vip_spans[0].attributes["tenant"] == "vip"

    def test_span_retention_bounds_the_tracer(
        self, make_daemon, client_for, run_with_deadline
    ):
        daemon = make_daemon(
            executors=1, config=self._traced_config(span_retention=5)
        )
        client = client_for(daemon)
        for _ in range(3):
            run_with_deadline(lambda: client.submit(SCRIPT, files=FILES))
        assert daemon.tracer.max_spans == 5
        assert len(daemon.tracer.spans) <= 5
        assert daemon.tracer.dropped_spans > 0
        assert client.stats()["trace"]["dropped_spans"] > 0
