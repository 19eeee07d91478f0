"""``pash-top`` — a live terminal view of a running ``pash-serve``.

Polls the daemon over the ordinary service protocol (one STATS and one
METRICS request per refresh — no privileged channel, no HTTP dependency)
and renders the operator's dashboard: queue depth, executor count, job
counters, plan-cache hit rate, pool occupancy, and a per-tenant table of
job counts, throughput (from count deltas between refreshes), and
p50/p99 latency estimated from the ``pash_job_seconds`` histogram.

Rendering is a pure function (:func:`render_frame`) from two protocol
payloads to a string, so tests assert on content without a terminal; the
CLI loop just clears the screen and reprints.  ``--once`` prints a single
frame and exits — the CI smoke job's mode.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from repro.service.admission import ServiceError
from repro.service.client import ServiceClient

#: ANSI: clear screen + home.  Written only in the interactive loop.
_CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _fmt_uptime(seconds: float) -> str:
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours:d}:{minutes:02d}:{secs:02d}"


def _metric_values(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    family = snapshot.get(name) or {}
    return list(family.get("values") or [])


def tenant_rows(
    snapshot: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    interval: float = 2.0,
) -> List[Dict[str, Any]]:
    """Per-tenant rows from the ``pash_job_seconds`` histogram entries.

    Throughput is the count delta against ``previous`` (the last refresh's
    snapshot) divided by the refresh interval; 0.0 on the first frame.
    """
    earlier: Dict[str, float] = {}
    for entry in _metric_values(previous or {}, "pash_job_seconds"):
        earlier[entry.get("labels", {}).get("tenant", "")] = float(
            entry.get("count", 0)
        )
    rows = []
    for entry in _metric_values(snapshot, "pash_job_seconds"):
        tenant = entry.get("labels", {}).get("tenant", "")
        count = float(entry.get("count", 0))
        delta = max(0.0, count - earlier.get(tenant, 0.0))
        rows.append(
            {
                "tenant": tenant,
                "jobs": int(count),
                "rate": delta / interval if interval > 0 else 0.0,
                "p50": float(entry.get("p50", 0.0)),
                "p99": float(entry.get("p99", 0.0)),
            }
        )
    rows.sort(key=lambda row: (-row["jobs"], row["tenant"]))
    return rows


def render_frame(
    stats: Dict[str, Any],
    snapshot: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    interval: float = 2.0,
) -> str:
    """One dashboard frame from a STATS payload and a registry snapshot."""
    jobs = stats.get("jobs") or {}
    cache = stats.get("plan_cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0) + cache.get(
        "negative_hits", 0
    )
    hit_rate = (
        100.0 * (cache.get("hits", 0) + cache.get("negative_hits", 0)) / lookups
        if lookups
        else 0.0
    )
    lines = [
        f"pash-top — {stats.get('endpoint') or '(not started)'}   "
        f"up {_fmt_uptime(stats.get('uptime_seconds', 0.0))}",
        "",
        f"queue depth {stats.get('queue_depth', 0)}   "
        f"executors {stats.get('executors', 0)}   "
        f"jobs: {jobs.get('completed', 0)} done / "
        f"{jobs.get('failed', 0)} failed / "
        f"{jobs.get('cancelled', 0)} cancelled",
        f"plan cache: {cache.get('hits', 0)} hits, "
        f"{cache.get('misses', 0)} misses "
        f"({hit_rate:.0f}% hit rate, {cache.get('entries', 0)} entries, "
        f"{cache.get('disk_hits', 0)} disk hits)",
    ]
    pool = stats.get("pool")
    if pool:
        lines.append(
            f"pool: {pool.get('workers', 0)} workers "
            f"({pool.get('idle', 0)} idle / {pool.get('busy', 0)} busy), "
            f"{pool.get('processes_spawned', 0)} spawned, "
            f"{pool.get('tasks_reused', 0)} reuses, "
            f"{pool.get('workers_replaced', 0)} replaced"
        )
    sampler = stats.get("sampler")
    if sampler:
        lines.append(
            f"tracing: ratio {sampler.get('ratio', 1.0):g} "
            f"({sampler.get('sampled', 0)} sampled / "
            f"{sampler.get('skipped', 0)} skipped), "
            f"{(stats.get('trace') or {}).get('spans', 0)} spans retained"
        )
    rows = tenant_rows(snapshot, previous, interval)
    lines.append("")
    lines.append(
        f"{'TENANT':<16} {'JOBS':>6} {'JOBS/S':>8} {'P50':>10} {'P99':>10}"
    )
    if rows:
        for row in rows:
            lines.append(
                f"{row['tenant']:<16.16} {row['jobs']:>6d} "
                f"{row['rate']:>8.2f} {_fmt_seconds(row['p50']):>10} "
                f"{_fmt_seconds(row['p99']):>10}"
            )
    else:
        lines.append("(no jobs observed yet)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The pash-top entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pash-top", description="Live terminal view of a running pash-serve."
    )
    parser.add_argument(
        "--connect", default="127.0.0.1:7070", help="daemon address (HOST:PORT)"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh every N seconds"
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit (no ANSI)"
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    arguments = build_parser().parse_args(argv)
    client = ServiceClient(arguments.connect, timeout=10.0)
    previous: Optional[Dict[str, Any]] = None
    try:
        while True:
            try:
                stats = client.stats()
                snapshot = client.metrics()["snapshot"]
            except ServiceError as error:
                print(f"pash-top: {error}", file=sys.stderr)
                return 2
            frame = render_frame(
                stats, snapshot, previous, interval=arguments.interval
            )
            if arguments.once:
                sys.stdout.write(frame)
                return 0
            sys.stdout.write(_CLEAR + frame)
            sys.stdout.flush()
            previous = snapshot
            time.sleep(max(0.1, arguments.interval))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())
