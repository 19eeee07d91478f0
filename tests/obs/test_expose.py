"""Prometheus exposition, the HTTP endpoint, and the JSONL event log —
all linted by the same ``tools/check_metrics.py`` CI uses."""

import importlib.util
import json
import os
import subprocess
import sys
import urllib.request

import pytest

from repro.obs.expose import (
    EVENT_SCHEMA,
    NULL_EVENTS,
    EventLog,
    MetricsServer,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry

_TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "check_metrics.py")


@pytest.fixture(scope="module")
def check_metrics():
    spec = importlib.util.spec_from_file_location("check_metrics", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("pash_jobs_completed_total", "Jobs done.").inc(5)
    registry.gauge("pash_queue_depth", "Depth.").set(2)
    hist = registry.histogram(
        "pash_job_seconds", "Latency.", labels=("tenant",), buckets=(0.01, 0.1, 1.0)
    )
    hist.labels(tenant="t0").observe(0.05)
    hist.labels(tenant="t0").observe(0.5)
    hist.labels(tenant="t0").observe(5.0)  # overflow bucket
    return registry


class TestPrometheusText:
    def test_lints_clean(self, registry, check_metrics):
        text = prometheus_text(registry)
        types, samples = check_metrics.lint_text(text)
        assert types["pash_jobs_completed_total"] == "counter"
        assert types["pash_job_seconds"] == "histogram"

    def test_histogram_shape(self, registry):
        text = prometheus_text(registry)
        assert '# TYPE pash_job_seconds histogram' in text
        assert 'pash_job_seconds_bucket{tenant="t0",le="0.01"} 0' in text
        assert 'pash_job_seconds_bucket{tenant="t0",le="0.1"} 1' in text
        assert 'pash_job_seconds_bucket{tenant="t0",le="1"} 2' in text
        assert 'pash_job_seconds_bucket{tenant="t0",le="+Inf"} 3' in text
        assert 'pash_job_seconds_count{tenant="t0"} 3' in text

    def test_help_and_type_appear_once_per_family(self, registry):
        text = prometheus_text(registry)
        assert text.count("# TYPE pash_job_seconds histogram") == 1
        assert text.count("# HELP pash_job_seconds") == 1

    def test_label_escaping(self, check_metrics):
        registry = MetricsRegistry()
        registry.counter("pash_esc_total", "x", labels=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        text = prometheus_text(registry)
        assert r'path="a\"b\\c\nd"' in text
        check_metrics.lint_text(text)

    def test_empty_registry_is_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_linter_rejects_garbage(self, check_metrics):
        with pytest.raises(check_metrics.MetricsError):
            check_metrics.lint_text("pash_no_type_total 3\n")
        with pytest.raises(check_metrics.MetricsError):
            check_metrics.lint_text(
                "# TYPE pash_bad_total counter\npash_bad_total -1\n"
            )
        with pytest.raises(check_metrics.MetricsError):
            check_metrics.lint_text(
                "# TYPE pash_bad counter\npash_bad 1\n"  # no _total suffix
            )

    def test_linter_monotonic_comparison(self, registry, check_metrics):
        earlier = prometheus_text(registry)
        registry.counter("pash_jobs_completed_total", "Jobs done.").inc()
        later = prometheus_text(registry)
        assert check_metrics.check_monotonic(earlier, later) >= 1
        with pytest.raises(check_metrics.MetricsError):
            check_metrics.check_monotonic(later, earlier)


class TestMetricsServer:
    def test_serves_get_metrics(self, registry, check_metrics):
        server = MetricsServer(registry, port=0)
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
            check_metrics.lint_text(body)
            assert "pash_jobs_completed_total 5" in body
        finally:
            server.stop()

    def test_unknown_path_is_404(self, registry):
        server = MetricsServer(registry, port=0)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope")
            # The error carries the open response and its socket: the caller owns both.
            with info.value:
                assert info.value.code == 404
        finally:
            server.stop()

    def test_refuses_non_loopback_without_allow_remote(self, registry):
        server = MetricsServer(registry, host="0.0.0.0", port=0)
        with pytest.raises(ValueError, match="non-loopback"):
            server.start()

    def test_stop_is_idempotent(self, registry):
        server = MetricsServer(registry, port=0)
        server.start()
        server.stop()
        server.stop()


class TestEventLog:
    def test_round_trip_schema(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("job-finished", job_id=1, tenant="t0", status="completed")
        log.emit("daemon-stopped")
        log.close()
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 2
        for record in records:
            assert record["schema"] == EVENT_SCHEMA
            assert isinstance(record["ts_us"], int)
        assert records[0]["event"] == "job-finished"
        assert records[0]["tenant"] == "t0"

    def test_emit_after_close_is_swallowed(self, tmp_path):
        log = EventLog(str(tmp_path / "e.jsonl"))
        log.close()
        log.emit("late")  # must not raise

    def test_null_log_is_inert(self):
        NULL_EVENTS.emit("anything", x=1)
        NULL_EVENTS.close()
        assert NULL_EVENTS.enabled is False


class TestLazyHttp:
    """``http.server`` is loaded by :meth:`MetricsServer.start`, not by import."""

    SOURCE = os.path.join(os.path.dirname(__file__), "..", "..", "src")

    def _environment(self):
        return dict(os.environ, PYTHONPATH=os.path.abspath(self.SOURCE))

    def test_importing_the_api_leaves_http_server_unloaded(self):
        probe = (
            "import sys, repro.api, repro.jit.cache, repro.runtime.interpreter, repro.service\n"
            "print(sorted(m for m in ('http.server', 'http.client', 'socketserver') if m in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=self._environment(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert completed.stdout.strip() == "[]"

    def test_pash_serve_metrics_port_still_serves_metrics(self):
        from repro.service import ServiceClient

        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.service.daemon", "--listen", "127.0.0.1:0",
             "--executors", "1", "--metrics-port", "0"],
            env=self._environment(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            said = []
            while len(said) < 2:  # ``-m`` of a module its package imports warns first
                line = daemon.stderr.readline()
                assert line, "pash-serve exited before it was listening"
                if line.startswith("pash-serve:"):
                    said.append(line)
            listening, metrics = said
            assert listening.startswith("pash-serve: listening on "), listening
            assert metrics.startswith("pash-serve: metrics on http://"), metrics
            url = metrics.split(" on ", 1)[1].strip()
            with urllib.request.urlopen(url, timeout=10) as response:
                body = response.read().decode("utf-8")
            assert "# TYPE pash_jobs_completed_total counter" in body
            host, port = listening.split()[3].rsplit(":", 1)
            with ServiceClient((host, int(port))) as client:
                client.shutdown()
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stderr.close()
