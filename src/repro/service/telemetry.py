"""The daemon's metrics registry is a *view*: who counts, and who reads.

An event is counted once, by the object that already keeps the number.
``pash-serve`` is the only process that exposes a registry, so it is the
only code that knows one exists; this module is where it says what the
registry shows.  ``docs/OBSERVABILITY.md`` carries the same catalogue, one
row per family declared here or by
:class:`~repro.service.daemon.PashServiceDaemon` (which itself owns the
job-outcome counters and the latency histogram):

* :func:`register_views` — collect-time reads over the long-lived owners
  the daemon holds (admission controller, run queue, plan cache, worker
  pool), so ``/metrics``, the ``metrics`` message, ``pash-top`` and
  ``daemon.stats()`` all read the same integers;
* :func:`fold_job` — one finished job's ``EngineMetrics`` and ``JitReport``
  added to the registry, once, when the job turns terminal.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: (kind, family, help, owner — an attribute path on the daemon, label name,
#: {label value: the owner's field}).  Unlabelled families use ``None`` twice.
_VIEWS = (
    ("counter", "pash_admissions_total", "Submissions that passed admission control.",
     "admission.stats", None, {None: "admitted"}),
    ("counter", "pash_rejections_total", "Submissions refused by admission control, by reason.",
     "admission.stats", "reason", {"busy": "rejected_queue_full", "quota": "rejected_quota"}),
    ("counter", "pash_plan_cache_requests_total", "Plan-cache lookups by outcome.",
     "plan_cache.stats", "result",
     {"hit": "hits", "miss": "misses", "negative_hit": "negative_hits"}),
    ("counter", "pash_plan_cache_evictions_total", "Plans evicted from the in-memory LRU tier.",
     "plan_cache.stats", None, {None: "evictions"}),
    ("counter", "pash_plan_cache_disk_total", "Disk plan-cache tier events.",
     "plan_cache.stats", "event",
     {"hit": "disk_hits", "write": "disk_writes", "stale": "disk_stale", "error": "disk_errors"}),
    ("counter", "pash_pool_processes_spawned_total", "Pool worker processes spawned.",
     "pool", None, {None: "processes_spawned"}),
    ("counter", "pash_pool_tasks_reused_total", "Tasks dispatched onto an already-warm worker.",
     "pool", None, {None: "tasks_reused"}),
    ("counter", "pash_pool_workers_replaced_total", "Dead pool workers replaced before a run.",
     "pool", None, {None: "workers_replaced"}),
    ("gauge", "pash_pool_workers", "Live pool workers (idle + busy).",
     "pool", None, {None: "worker_count"}),
)

#: (family, help, what one finished job adds).
_JOB_FOLDS = (
    ("pash_runs_retried_total", "Supervised attempts retried after a fault.",
     lambda metrics, jit: metrics.runs_retried),
    ("pash_degraded_runs_total", "Runs degraded to the interpreter after retries ran out.",
     lambda metrics, jit: metrics.degraded_runs),
    ("pash_jit_regions_inline_total", "JIT regions the planner kept in-process (width 1).",
     lambda metrics, jit: jit.regions_inline),
    ("pash_engine_bytes_moved_total", "Bytes that crossed engine channels.",
     lambda metrics, jit: metrics.total_bytes_moved),
    ("pash_engine_spilled_bytes_total", "Bytes stream buffers spilled to disk.",
     lambda metrics, jit: metrics.total_spilled_bytes),
)


def register_views(registry: MetricsRegistry, daemon: Any) -> None:
    """Point the registry at the numbers ``daemon``'s parts already keep."""
    for kind, name, help_text, owner, label, fields in _VIEWS:
        family = getattr(registry, kind)(name, help_text, labels=(label,) if label else ())
        for value, field in fields.items():
            child = family.labels(**{label: value}) if label else family
            # The owner is looked up at collect time: the pool exists only
            # from start() on, and never on a ``jobs=0`` daemon (reads as 0).
            child.set_function(
                lambda owner=attrgetter(owner), field=field: getattr(owner(daemon), field, 0)
            )
    registry.gauge("pash_queue_depth", "Jobs queued awaiting an executor.").set_function(
        lambda: daemon.run_queue.qsize()
    )
    registry.gauge(
        "pash_uptime_seconds", "Seconds since the daemon started serving."
    ).set_function(lambda: time.time() - daemon.started_at if daemon.started_at else 0.0)
    for name, help_text, _ in _JOB_FOLDS:
        registry.counter(name, help_text)


def fold_job(registry: MetricsRegistry, metrics: Any, jit: Any) -> None:
    """Add one finished job's own counts to the registry (call once per job)."""
    for name, help_text, read in _JOB_FOLDS:
        registry.counter(name, help_text).inc(read(metrics, jit))
