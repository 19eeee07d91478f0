"""Exposing the metrics registry: Prometheus text, HTTP, and JSONL events.

Three continuous-telemetry surfaces over one
:class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative ``_bucket``
  series plus ``_sum``/``_count``).  ``tools/check_metrics.py`` lints the
  output structurally in CI.
* :class:`MetricsServer` — an opt-in stdlib HTTP endpoint serving
  ``GET /metrics`` from a daemon thread (``pash-serve --metrics-port``).
  Loopback-guarded exactly like the service socket: the endpoint leaks
  operational detail (tenants, rates, cache behaviour), so binding a
  non-loopback host requires the same explicit ``allow_remote`` opt-in.
* :class:`EventLog` — a schema-stable JSONL log of *discrete occurrences*
  (job admitted/finished, degrade, daemon lifecycle), the complement of the
  registry's continuous aggregates.  One JSON object per line, flushed per
  event, so ``tail -f`` and log shippers see records immediately.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.wire import is_loopback_host

if TYPE_CHECKING:  # pragma: no cover - loaded by MetricsServer.start
    from http.server import ThreadingHTTPServer

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "MetricsServer",
    "NULL_EVENTS",
    "prometheus_text",
]

#: Content type of the text exposition format (what Prometheus sends in
#: its Accept header and expects back).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))

def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _labels_text(names: Tuple[str, ...], values: Tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Families appear sorted by name, each with its ``# HELP`` and ``# TYPE``
    header once, then one sample line per (labelset[, bucket]).  Histograms
    are exposed the standard way: cumulative ``<name>_bucket{le="…"}``
    series ending in ``le="+Inf"``, plus ``<name>_sum`` and
    ``<name>_count``.
    """
    lines = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_values, child in family.children():
            labels = _labels_text(family.label_names, label_values)
            if family.kind == "histogram":
                cumulative = 0
                counts = child.bucket_counts()
                for bound, count in zip(family.buckets, counts):
                    cumulative += count
                    bucket_labels = _labels_text(
                        family.label_names,
                        label_values,
                        extra=f'le="{_format_value(bound)}"',
                    )
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {cumulative}"
                    )
                cumulative += counts[-1] if len(counts) > len(family.buckets) else 0
                inf_labels = _labels_text(
                    family.label_names, label_values, extra='le="+Inf"'
                )
                lines.append(f"{family.name}_bucket{inf_labels} {cumulative}")
                lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                lines.append(f"{family.name}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# The HTTP endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """``GET /metrics`` over stdlib :class:`ThreadingHTTPServer`.

    Binds ``host:port`` (port 0 = ephemeral, for tests) and serves from a
    daemon thread; :meth:`stop` shuts it down idempotently.  Refuses a
    non-loopback host unless ``allow_remote`` — the same trust model as
    ``pash-serve --listen``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_remote: bool = False,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.allow_remote = allow_remote
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (known after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("metrics server is not started")
        return self._server.server_address[1]

    def start(self) -> None:
        if not is_loopback_host(self.host) and not self.allow_remote:
            raise ValueError(
                f"refusing to expose metrics on non-loopback address "
                f"{self.host!r}: the endpoint reveals tenants, rates, and "
                "cache behaviour; pass allow_remote=True (--allow-remote) "
                "only on a trusted network"
            )
        # Imported here, not at module top: ``http.server`` pulls in
        # ``http.client``, ``email``, ``ssl`` and ``socketserver``, and every
        # process that imports ``repro`` would pay for them to serve nothing.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served here")
                    return
                body = prometheus_text(registry).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:
                return None  # scrapes are high-frequency; stay quiet

        self._server = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="pash-metrics-http", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


# ---------------------------------------------------------------------------
# The JSONL event log
# ---------------------------------------------------------------------------

#: Bumped on any incompatible change to the per-line record shape.
EVENT_SCHEMA = 1


class EventLog:
    """Append-only JSONL log of discrete telemetry events.

    Each line is one JSON object::

        {"schema": 1, "ts_us": <int>, "event": "<kind>", ...fields}

    ``schema`` and ``ts_us`` (wall-clock microseconds, the tracer's
    timeline) are reserved; every other field comes from the emitter.
    Thread-safe, one flushed write per event; emission failures are
    swallowed after the first (telemetry must never take the daemon down
    with a full disk).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.enabled = True
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")
        self._broken = False

    def emit(self, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "ts_us": time.time_ns() // 1_000,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=False, default=str)
        with self._lock:
            if self._broken:
                return
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
            except (OSError, ValueError):
                self._broken = True

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass
            self._broken = True


class _NullEventLog:
    """The shared disabled event log (no file, no locks, no allocation)."""

    __slots__ = ()
    enabled = False
    path = None

    def emit(self, event: str, **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None


NULL_EVENTS = _NullEventLog()
