"""``MetricsRegistry`` — continuous counters, gauges, and histograms.

The tracing plane (:mod:`repro.obs.tracer`) answers *"what happened inside
one run?"*; this module answers the daemon-era question *"what is happening
per second, right now, and how has it trended since start-up?"*.

**Who counts, who views.**  An event is counted once, by the object that
already keeps the number — :class:`~repro.engine.pool.WorkerPool`'s
counters, the plan cache's ``CacheStats``, the ``AdmissionController``, a
run's ``EngineMetrics`` and ``JitReport``.  A registry is a *view* over
those owners, built by the one process that exposes one (``pash-serve``,
see :mod:`repro.service.telemetry`): long-lived owners are read at collect
time (:meth:`CounterChild.set_function`), finished jobs are folded in once.
Nothing below the daemon knows a registry exists, and this module keeps no
process-wide state.

Design constraints:

* **exact under contention.**  Python's ``+=`` on an attribute is *not*
  atomic (the GIL can switch threads between the load and the store), so
  every instrument child guards its state with its own lock.  The service
  daemon's job counters hammer these from N executor threads; the
  registry's correctness test does too.
* **bounded memory.**  Histograms are fixed-bucket (Prometheus-style):
  observing a million latencies costs the same few dozen integers as
  observing ten.  Quantiles (p50/p95/p99) are estimated by linear
  interpolation inside the owning bucket, so their relative error is
  bounded by the bucket spacing — asserted against a sorted-list oracle in
  ``tests/obs/test_metrics_registry.py``.
* **a scrape never raises.**  A collect-time read that fails reads as 0.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]

#: Prometheus metric- and label-name legality (no leading ``__`` for labels).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds): geometric with ratio
#: 1.25 from 1 ms to ~10 min.  The ~25% spacing bounds the quantile
#: estimation error; 60-odd buckets keep a child at a few hundred bytes.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(0.001 * (1.25 ** exponent), 9) for exponent in range(60)
)


class MetricError(ValueError):
    """A misused instrument: bad name, label mismatch, re-typed metric."""


def _validate_labels(declared: Tuple[str, ...], given: Mapping[str, str]) -> Tuple[str, ...]:
    """The label *values* in declared order; raises on any key mismatch."""
    if set(given) != set(declared):
        raise MetricError(
            f"labels {sorted(given)} do not match declared {sorted(declared)}"
        )
    return tuple(str(given[name]) for name in declared)


# ---------------------------------------------------------------------------
# Instrument children — the lock-guarded leaves every increment lands on
# ---------------------------------------------------------------------------


class _ValueChild:
    """One (metric, labelset) number: stored, or read at collect time."""

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set_function(self, function: Callable[[], float]) -> None:
        """Evaluate ``function`` at collect time instead of storing a value:
        the number is owned elsewhere (a pool's spawn count, a cache's hit
        count, a queue's depth), and reading the owner at scrape time keeps
        one count per event where a write-through hook would keep two."""
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        try:
            return float(function())
        except Exception:  # noqa: BLE001 - a scrape must never raise
            return 0.0


class CounterChild(_ValueChild):
    """One (metric, labelset) monotonic counter.  Thread-safe and exact."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge for decrements")
        with self._lock:
            self._value += amount


class GaugeChild(_ValueChild):
    """One (metric, labelset) gauge: set/inc/dec, or a collect-time callback."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class HistogramChild:
    """One (metric, labelset) fixed-bucket histogram with quantile estimates."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        #: One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; the exposition cumulates."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by in-bucket interpolation.

        The estimate is exact to within one bucket: the true value lies in
        the same bucket, so the relative error is bounded by the bucket
        spacing (~25% with :data:`DEFAULT_BUCKETS`).  Returns 0.0 when
        nothing has been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                upper = (
                    self._bounds[index]
                    if index < len(self._bounds)
                    else math.inf
                )
                lower = self._bounds[index - 1] if index > 0 else 0.0
                if math.isinf(upper):
                    return lower  # overflow bucket: the bound is all we know
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self._bounds[-1] if self._bounds else 0.0

    def quantiles(self) -> Dict[str, float]:
        """The dashboard trio: p50/p95/p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


# ---------------------------------------------------------------------------
# Instrument families — name + help + declared labels, children per labelset
# ---------------------------------------------------------------------------


class _Family:
    """Shared family logic: child management keyed on label values."""

    kind = "untyped"
    _child_class: type = CounterChild

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not label_names:
            # An unlabelled family always has its one sample: a counter that
            # never fired is exposed as 0, not as a TYPE line with no value.
            self._children[()] = self._make_child()

    def _make_child(self) -> Any:
        return self._child_class()

    def labels(self, **labels: str) -> Any:
        """The child for one labelset (created on first use)."""
        values = _validate_labels(self.label_names, labels)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                self._children[values] = child
            return child

    def _default_child(self) -> Any:
        if self.label_names:
            raise MetricError(
                f"{self.name} declares labels {self.label_names}; call .labels()"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    """A monotonically increasing family (``*_total`` by convention)."""

    kind = "counter"
    _child_class = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default_child().set_function(function)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Family):
    """A family of values that can go up and down (or be polled)."""

    kind = "gauge"
    _child_class = GaugeChild

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default_child().set_function(function)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(_Family):
    """A family of bounded-memory distributions (latency, sizes…)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise MetricError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError("histogram bucket bounds must be strictly increasing")
        self.buckets = bounds
        super().__init__(name, help_text, label_names)

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Every instrument of one daemon, by name.

    Registration is idempotent — asking for an existing name returns the
    existing family — but re-registering a name with a different type or
    label declaration raises :class:`MetricError` (the exposition would be
    ambiguous otherwise).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # -- registration --------------------------------------------------------

    def _register(
        self, name: str, factory: Callable[[], _Family], kind: str, labels: Tuple[str, ...]
    ) -> Any:
        if not _NAME_RE.match(name):
            raise MetricError(f"illegal metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricError(f"illegal label name {label!r} on {name}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != labels:
                    raise MetricError(
                        f"metric {name!r} already registered as {family.kind}"
                        f"{family.label_names}; cannot re-register as {kind}{labels}"
                    )
                return family
            family = factory()
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        label_names = tuple(labels)
        return self._register(
            name, lambda: Counter(name, help_text, label_names), "counter", label_names
        )

    def gauge(self, name: str, help_text: str = "", labels: Iterable[str] = ()) -> Gauge:
        label_names = tuple(labels)
        return self._register(
            name, lambda: Gauge(name, help_text, label_names), "gauge", label_names
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        label_names = tuple(labels)
        return self._register(
            name,
            lambda: Histogram(name, help_text, label_names, buckets=buckets),
            "histogram",
            label_names,
        )

    # -- collection ----------------------------------------------------------

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able view of every instrument (the ``pash-top`` feed).

        Histogram entries carry ``count``/``sum`` plus estimated
        ``p50``/``p95``/``p99`` so consumers never need the raw buckets.
        """
        document: Dict[str, Any] = {}
        for family in self.families():
            values = []
            for label_values, child in family.children():
                entry: Dict[str, Any] = {
                    "labels": dict(zip(family.label_names, label_values))
                }
                if family.kind == "histogram":
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry.update(child.quantiles())
                else:
                    entry["value"] = child.value
                values.append(entry)
            document[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return document
