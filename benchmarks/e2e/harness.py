"""Measurement discipline shared by every workload.

* :class:`Calibrator` — drift-corrected timing: each sample is bracketed by
  the frozen kernel of :mod:`calib` and reported in seconds at nominal host
  speed (see ``README.md``, "Calibration").
* process-tree accounting from ``/proc`` — CPU seconds and peak RSS of the
  workload process plus everything it started (pool workers, daemon, cluster
  workers), read from outside the program.
* :class:`Spans` — the benchmark's own spans around calls into each layer,
  kept in memory and written once as a Perfetto/Chrome ``trace.json``.
"""

import contextlib
import itertools
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import calib

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------


def _stat_fields(pid):
    """Fields of ``/proc/PID/stat`` after the command name, or None if gone."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def process_tree(root=None):
    """``root`` (default: this process) and every live descendant, as stat rows."""
    root = os.getpid() if root is None else root
    rows = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                rows[int(entry)] = fields
    children: Dict[int, List[int]] = {}
    for pid, fields in rows.items():
        children.setdefault(int(fields[1]), []).append(pid)
    members, frontier = {}, [root]
    while frontier:
        pid = frontier.pop()
        if pid in rows and pid not in members:
            members[pid] = rows[pid]
            frontier.extend(children.get(pid, ()))
    return members


def tree_cpu_seconds(root=None):
    """utime+stime of the tree, plus what its reaped children had used."""
    ticks = 0
    for fields in process_tree(root).values():
        ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLOCK_TICKS


def tree_peak_rss_mb(root=None):
    """Sum of ``VmHWM`` over the live tree, in MB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open("/proc/%d/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Drift-corrected timing
# ---------------------------------------------------------------------------


class Sample(NamedTuple):
    raw: float  #: wall seconds as measured
    seconds: float  #: wall seconds at nominal host speed
    cpu: Optional[float]  #: tree CPU seconds at nominal host speed
    value: Any  #: whatever the timed callable returned


class Calibrator:
    """Times callables between two runs of the calibration kernel.

    The kernel run after one sample doubles as the run before the next, so a
    sample costs one kernel run.  No sample is ever discarded.
    """

    def __init__(self) -> None:
        self.kernel_runs: List[float] = []
        self.factors: List[float] = []
        self._last: Optional[float] = None

    def kernel(self) -> float:
        self._last = calib.kernel_seconds()
        self.kernel_runs.append(self._last)
        return self._last

    def warm_up(self, runs: int = 3) -> float:
        """Take the kernel past its cold start; returns the seconds that took."""
        spent = sum(self.kernel() for _ in range(runs))
        self.kernel_runs.clear()
        return spent

    def close_bracket(self) -> float:
        """Correction factor for work done since the last kernel run."""
        before = self._last if self._last is not None else self.kernel()
        return self.factor_between(before, self.kernel())

    def factor_between(self, before: float, after: float) -> float:
        factor = calib.CALIB_NOMINAL_S / ((before + after) / 2.0)
        self.factors.append(factor)
        return factor

    def timed(self, work: Callable[[], Any], cpu: bool = False) -> Sample:
        before = self._last if self._last is not None else self.kernel()
        cpu_before = tree_cpu_seconds() if cpu else 0.0
        started = time.perf_counter()
        value = work()
        raw = time.perf_counter() - started
        cpu_used = tree_cpu_seconds() - cpu_before if cpu else None
        factor = self.factor_between(before, self.kernel())
        return Sample(
            raw=raw,
            seconds=raw * factor,
            cpu=cpu_used * factor if cpu_used is not None else None,
            value=value,
        )


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, fraction):
    """Nearest-rank percentile (no interpolation: it is a value that occurred)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


# ---------------------------------------------------------------------------
# Benchmark-owned spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder; one row per ``with spans.span(...)`` block.

    Rows carry name, start, duration, parent and the id of the operation they
    belong to, under the same keys as the program's ``SpanRecord.to_dict()``
    rows, so one exporter serves both.  Disabled recorders cost one attribute
    check per block.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op: str = "", **attributes: Any):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        attributes["op"] = op or (stack[-1]["attributes"]["op"] if stack else "")
        row = {
            "name": name,
            "category": layer,
            "span_id": "b%x.%x" % (os.getpid(), next(self._ids)),
            "parent_id": stack[-1]["span_id"] if stack else None,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "start_us": time.time_ns() // 1000,
            "attributes": attributes,
        }
        stack.append(row)
        started = time.perf_counter()
        try:
            yield row
        finally:
            row["duration_us"] = (time.perf_counter() - started) * 1e6
            stack.pop()
            self.rows.append(row)


def write_trace(path, spans: Spans, program_spans=()):
    """Write benchmark spans and the program's own span rows as one Chrome trace."""
    events = [
        {
            "name": row["name"],
            "cat": row["category"],
            "ph": "X",
            "ts": row["start_us"],
            "dur": row["duration_us"],
            "pid": row["pid"],
            "tid": row["tid"],
            "args": dict(row.get("attributes", {}), span_id=row["span_id"], parent_id=row["parent_id"]),
        }
        for row in list(spans.rows) + list(program_spans)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
