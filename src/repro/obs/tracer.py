"""Low-overhead span tracing for the whole compile-and-run pipeline.

A :class:`Tracer` records :class:`SpanRecord`\\ s — named, timed intervals
with parent/child links — for every layer of a run: parse, each optimizer
pass, JIT region decisions, scheduler phases, and per-node worker execution.
Spans carry the existing metrics counters as plain attributes, so byte/line/
spill flow is queryable per span.

Design constraints, in order:

* **near-zero cost when off.**  Tracing defaults to disabled; a disabled
  tracer's :meth:`Tracer.span` returns a shared singleton context manager
  (no allocation, one attribute check), and worker processes skip the span
  path entirely when their plan carries no :class:`TraceContext`.
* **plain data across process boundaries.**  :class:`SpanRecord` and
  :class:`TraceContext` are plain dataclasses of scalars; pool workers ship
  their spans back inside the existing report-queue payload, cluster
  workers as ``to_dict()`` rows in their JSON RESULT, and the parent
  absorbs them with :meth:`Tracer.record`/:meth:`Tracer.extend`.
* **one clock story.**  Span *start* timestamps are wall-clock
  (``time.time_ns``, shared across every process on the machine, so spans
  from different pids land on one timeline); *durations* are monotonic
  (``time.perf_counter_ns``), so an NTP step mid-span cannot produce a
  negative or wildly wrong length.

Span identity is ``"<pid hex>.<counter hex>"`` — unique across processes
without coordination.  The *current* span is tracked in a
:class:`contextvars.ContextVar`, so nesting works across threads and the
JIT driver's recursive interpreter frames alike.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Wall-clock microseconds; one timeline shared by every process on the host.
def _now_us() -> int:
    return time.time_ns() // 1_000


def _native_tid() -> int:
    get_native = getattr(threading, "get_native_id", None)
    return get_native() if get_native is not None else threading.get_ident()


_span_counter = itertools.count(1)
#: Fork safety: a forked child must not continue the parent's counter under
#: the parent's pid-prefixed ids (same pid prefix never happens — the child
#: has a new pid — so the shared counter is safe as-is; ids stay unique).


def new_span_id() -> str:
    """A process-unique span id: ``"<pid hex>.<counter hex>"``."""
    return f"{os.getpid():x}.{next(_span_counter):x}"


#: The active span's id, per execution context (thread/task).
_CURRENT_SPAN: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "pash_current_span", default=None
)


@dataclass
class SpanRecord:
    """One named, timed interval — the unit every exporter consumes.

    ``attributes`` values must stay JSON-able scalars (str/int/float/bool)
    so records round-trip through pickle, JSONL, and the Chrome trace
    ``args`` dict unchanged.
    """

    name: str
    #: Coarse layer tag: ``"parse"`` | ``"pass"`` | ``"jit"`` | ``"scheduler"``
    #: | ``"worker"`` | ``"engine"`` (exporters group and color by this).
    category: str
    span_id: str = ""
    parent_id: Optional[str] = None
    pid: int = 0
    tid: int = 0
    #: Wall-clock start, microseconds since the epoch (one host timeline).
    start_us: int = 0
    #: Monotonic duration, microseconds.
    duration_us: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span (no-op on the disabled path)."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """Stable flat-JSON schema (the JSONL exporter's row)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=payload["name"],
            category=payload["category"],
            span_id=payload.get("span_id", ""),
            parent_id=payload.get("parent_id"),
            pid=payload.get("pid", 0),
            tid=payload.get("tid", 0),
            start_us=payload.get("start_us", 0),
            duration_us=payload.get("duration_us", 0),
            attributes=dict(payload.get("attributes", {})),
        )


@dataclass
class TraceContext:
    """The cross-process handoff: "record spans, parented under this id".

    Small and picklable by construction — it travels inside a
    :class:`~repro.engine.workers.WorkerPlan` to pool workers and dedicated
    forks alike.  ``None`` in the plan means tracing is off and the worker
    never touches the span path.
    """

    parent_id: Optional[str] = None


class _NullSpan:
    """The shared do-nothing span handle for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("tracer", "record", "_perf_start", "_token")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self.tracer = tracer
        self.record = record
        self._perf_start = 0
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> SpanRecord:
        self.record.start_us = _now_us()
        self._perf_start = time.perf_counter_ns()
        self._token = _CURRENT_SPAN.set(self.record.span_id)
        return self.record

    def __exit__(self, *exc_info: Any) -> None:
        self.record.duration_us = (time.perf_counter_ns() - self._perf_start) // 1_000
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        self.tracer._append(self.record)


class Tracer:
    """Collects spans for one logical run (or session) of the pipeline.

    One tracer instance is threaded through every layer; worker processes
    contribute via :meth:`extend` (their spans arrive through the report
    queue).  ``enabled=False`` makes every method a near-free no-op — the
    hot path is a single attribute check.
    """

    def __init__(self, enabled: bool = True, max_spans: Optional[int] = None) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("Tracer max_spans must be >= 1 (or None for unbounded)")
        self.enabled = enabled
        #: Ring-buffer retention: keep at most this many spans, evicting the
        #: oldest (None = unbounded, the per-run default).  Long-running
        #: daemons set this so ``--trace`` can stay on forever without
        #: unbounded memory; :attr:`dropped_spans` counts the evictions.
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self._evicted = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def span(self, name: str, category: str, parent_id: Optional[str] = None, **attributes: Any):
        """Context manager timing one interval; nests under the current span.

        ``parent_id`` overrides the contextvar-derived parent (used when
        stitching across process or driver boundaries).
        """
        if not self.enabled:
            return _NULL_SPAN
        record = SpanRecord(
            name=name,
            category=category,
            span_id=new_span_id(),
            parent_id=parent_id if parent_id is not None else _CURRENT_SPAN.get(),
            pid=os.getpid(),
            tid=_native_tid(),
            attributes=dict(attributes),
        )
        return _LiveSpan(self, record)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)
            self._trim_locked()

    def _trim_locked(self) -> None:
        """Evict the oldest spans past :attr:`max_spans` (lock held)."""
        if self.max_spans is None:
            return
        overflow = len(self.spans) - self.max_spans
        if overflow > 0:
            del self.spans[:overflow]
            self._evicted += overflow

    def record(self, record: SpanRecord) -> None:
        """Absorb one externally-built span (e.g. from a worker report)."""
        if self.enabled:
            self._append(record)

    def extend(self, records: Iterable[SpanRecord]) -> None:
        """Absorb a batch of externally-built spans."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.extend(records)
            self._trim_locked()

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self._evicted = 0

    # -- context handoff -----------------------------------------------------

    def current_id(self) -> Optional[str]:
        """The active span's id in this execution context (None when off)."""
        if not self.enabled:
            return None
        return _CURRENT_SPAN.get()

    def context(self) -> Optional[TraceContext]:
        """A picklable handoff for a worker process (None when disabled)."""
        if not self.enabled:
            return None
        return TraceContext(parent_id=_CURRENT_SPAN.get())

    # -- introspection -------------------------------------------------------

    def mark(self) -> int:
        """Current span count; slice with :meth:`since` for per-run views.

        Marks count *lifetime* recordings, so they stay valid across
        ring-buffer eviction: a :meth:`since` on an old mark simply returns
        whatever of that window is still retained.
        """
        with self._lock:
            return self._evicted + len(self.spans)

    def since(self, mark: int) -> List[SpanRecord]:
        """Spans recorded after :meth:`mark` was taken (still retained)."""
        with self._lock:
            start = max(0, mark - self._evicted)
            return list(self.spans[start:])

    def descendants(self, root_id: str, mark: int = 0) -> List[SpanRecord]:
        """Retained spans since ``mark`` whose ancestor chain reaches ``root_id``.

        The per-job view on a tracer shared by concurrent jobs: positional
        :meth:`since` slices interleave there, ancestry does not.
        """
        window = self.since(mark)
        parents = {span.span_id: span.parent_id for span in window}

        def under_root(span_id: Optional[str]) -> bool:
            while span_id is not None and span_id != root_id:
                span_id = parents.get(span_id)
            return span_id == root_id

        return [span for span in window if under_root(span.parent_id)]

    @property
    def dropped_spans(self) -> int:
        """Spans evicted by the :attr:`max_spans` ring buffer (0 = none)."""
        with self._lock:
            return self._evicted


#: The shared disabled tracer: ``tracer or NULL_TRACER`` keeps call sites
#: branch-free and costs one attribute check per skipped span.
NULL_TRACER = Tracer(enabled=False)


def record_worker_span(
    trace: Optional[TraceContext],
    name: str,
    category: str,
    start_us: int,
    duration_us: int,
    attributes: Optional[Dict[str, Any]] = None,
) -> Optional[SpanRecord]:
    """Build one span inside a worker process (no tracer object there).

    Returns ``None`` when ``trace`` is ``None`` (tracing off) so the worker
    hot path stays a single check; the scheduler absorbs the returned record
    from the report payload.
    """
    if trace is None:
        return None
    return SpanRecord(
        name=name,
        category=category,
        span_id=new_span_id(),
        parent_id=trace.parent_id,
        pid=os.getpid(),
        tid=_native_tid(),
        start_us=start_us,
        duration_us=duration_us,
        attributes=dict(attributes or {}),
    )
