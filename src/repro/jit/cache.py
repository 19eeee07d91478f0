"""``PlanCache`` — compiled dataflow plans keyed on runtime state.

A plan is reusable exactly when four things match:

1. the region's structural **fingerprint** (its shell text),
2. the **values of every parameter the region references** at the moment it
   is reached (a loop body that does not mention the loop variable hashes
   identically on every iteration; one that does recompiles whenever the
   value changes), and
3. the **configuration digest** (passes, streaming knobs… — anything
   that changes what the pass pipeline produces), and
4. the **width** the plan was compiled at.  With ``jit_inner_backend="auto"``
   the region planner picks it per execution, so one region over inputs of
   mixed sizes holds one plan per width it ever ran at (width 1 is the
   sequential graph, straight from the builder).

Compilation *failures* are cached too (negative entries), so a loop body the
compiler refuses once is refused from the cache on later iterations instead
of re-walking the builder every time.  Regions whose expansion depends on
state outside the key — command substitutions, glob patterns — are never
cached; the driver marks them uncacheable.

Beside the plans a cache keeps a **script memo**: source text → its parsed
AST and, per region node, the facts that only the node decides
(:class:`~repro.dfg.regions.RegionFacts`), so a driver handed a source it has
seen — the second job of a daemon, the hit pass of a session — neither parses
nor re-walks it.  Memory-only, under the same lock and the same LRU bound.

Two cache classes share this keying:

* :class:`PlanCache` — the in-memory bounded LRU every :class:`JitDriver`
  owns by default.  Thread-safe: the service daemon shares one instance
  across executor threads.
* :class:`DiskPlanCache` — the LRU plus a **persistent disk tier**: every
  successfully compiled plan is also written to a cache directory as JSON,
  so a popular one-liner compiles once per fleet, not once per process.
  Disk entries carry :func:`cache_version`; a version mismatch (new
  release, new plan format) invalidates the file on first touch.  Corrupt,
  truncated or foreign files are never fatal and never evaluated: the
  lookup falls back to a fresh compile and the bad file is removed (and
  negative-cached in memory if removal fails), so one crashed writer cannot
  poison the fleet.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.dfg.json_form import from_json, to_json
from repro.dfg.regions import RegionFacts, region_facts
from repro.shell.parser import parse
from repro.transform.pipeline import OptimizationReport

#: (fingerprint, referenced-binding values, config digest, width)
PlanKey = Tuple[str, Tuple[Tuple[str, Optional[str]], ...], str, int]

#: Bumped on any incompatible change to the disk-entry layout (2: the key
#: gained the width; 3: JSON files).
PLAN_FORMAT_VERSION = 3


def cache_version() -> str:
    """The disk tier's compatibility stamp.

    Combines the package version with the on-disk format version: plans
    compiled by any other release (whose passes may produce different
    graphs) or written in any other layout are stale on arrival.
    """
    from repro import __version__

    return f"{__version__}+plan{PLAN_FORMAT_VERSION}"


@dataclass
class CompiledPlan:
    """A successfully compiled (and optimized) region, ready to re-execute."""

    graph: Any  # DataflowGraph (kept untyped to avoid an import cycle)
    report: Any  # OptimizationReport
    fingerprint: str
    #: How many times this plan has been executed (1 = compile run only).
    executions: int = 0
    #: On a sequential (width 1) plan: the region planner's latest decision
    #: and the line counts it was made for, so a loop over inputs of one
    #: size plans once.  One slot: a growing input never grows this.
    decided: Optional[Tuple[Any, Any]] = None


@dataclass
class FailedPlan:
    """A cached compilation refusal (the negative entry)."""

    reason: str
    fingerprint: str


PlanEntry = Union[CompiledPlan, FailedPlan]


@dataclass
class ParsedScript:
    """One source text's AST, shared read-only by every run of that text."""

    ast: Any  # repro.shell.ast_nodes.Node
    #: ``id(region node)`` → its facts, filed at first reach.
    _facts: Dict[int, RegionFacts] = field(default_factory=dict)

    def facts(self, node: Any) -> RegionFacts:
        """The facts of one region node of :attr:`ast`, walked once.

        Drivers on several threads may ask at once: the value is a pure
        function of the node, so a lost race files an equal object.
        """
        facts = self._facts.get(id(node))
        if facts is None:
            facts = self._facts[id(node)] = region_facts(node)
        return facts


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    evictions: int = 0
    #: Disk-tier counters (all zero on a purely in-memory cache).
    disk_hits: int = 0
    disk_writes: int = 0
    #: Files discarded for a cache-version mismatch.
    disk_stale: int = 0
    #: Files discarded as corrupt/truncated/unreadable/foreign (read side),
    #: plus entries that could not be serialised or written (write side).
    disk_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class PlanCache:
    """A bounded LRU cache of compiled region plans (thread-safe)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("PlanCache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, PlanEntry]" = OrderedDict()
        self._scripts: "OrderedDict[str, ParsedScript]" = OrderedDict()
        #: Reentrant: DiskPlanCache holds it across a lookup-then-promote.
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: PlanKey) -> Optional[PlanEntry]:
        """Look up a plan; records a hit/miss and refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            if isinstance(entry, FailedPlan):
                self.stats.negative_hits += 1
            else:
                self.stats.hits += 1
            return entry

    def put(self, key: PlanKey, entry: PlanEntry) -> None:
        """Insert (or refresh) a plan, evicting the least recently used."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def script(self, source: str) -> ParsedScript:
        """The parse of ``source``, made at most once while it stays cached.

        Parsing happens under the lock, so two executors handed one new
        source parse it once; a source that does not parse raises and is
        not remembered.
        """
        with self._lock:
            script = self._scripts.get(source)
            if script is None:
                script = self._scripts[source] = ParsedScript(parse(source))
                while len(self._scripts) > self.capacity:
                    self._scripts.popitem(last=False)
            else:
                self._scripts.move_to_end(source)
            return script

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._scripts.clear()


class DiskPlanCache(PlanCache):
    """The in-memory LRU backed by a persistent on-disk tier.

    ``directory`` holds one JSON file per plan (version, key, fingerprint,
    the graph's :mod:`~repro.dfg.json_form` and the optimization report),
    named by a hash of the key's JSON text, which the file stores too, so a
    hash collision reads as a miss, never as a wrong plan.  ``decided`` and
    negative entries (compiler refusals) stay memory-only, the latter
    since refusal is cheap to rediscover and may be
    version-specific in ways the digest cannot see.

    Failure policy (exercised by ``tests/service/test_plan_cache_faults.py``):
    any unreadable, truncated, stale-versioned, or malformed file is treated
    as a miss, deleted best-effort, and — if deletion fails — remembered in
    an in-memory poison set so the broken file is read at most once per
    process.  The caller then compiles fresh and ``put`` rewrites the entry
    atomically (temp file + ``os.replace``).
    """

    def __init__(
        self,
        directory: str,
        capacity: int = 256,
        version: Optional[str] = None,
    ) -> None:
        super().__init__(capacity=capacity)
        self.directory = directory
        self.version = version or cache_version()
        self._poisoned: Set[str] = set()
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, key: PlanKey) -> str:
        digest = hashlib.sha256(json.dumps(key).encode("ascii")).hexdigest()[:40]
        return os.path.join(self.directory, f"{digest}.plan")

    def _discard(self, path: str) -> None:
        """Remove a bad file; poison the path in memory if removal fails."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError:
            self._poisoned.add(path)

    def get(self, key: PlanKey) -> Optional[PlanEntry]:
        with self._lock:
            entry = super().get(key)
            path = self._path(key)
            if entry is not None or path in self._poisoned:
                return entry
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload["version"] != self.version:
                    entry = None
                elif payload["key"] != json.dumps(key):
                    return None  # a filename-hash collision: left for its owner
                else:
                    entry = CompiledPlan(
                        graph=from_json(payload["graph"]),
                        report=OptimizationReport.from_dict(payload["report"]),
                        fingerprint=payload["fingerprint"],
                    )
            except FileNotFoundError:
                return None
            except Exception:
                # Corrupt, truncated, unreadable or of a foreign shape: fall
                # back to a fresh compile; drop the file so it is not re-read.
                self.stats.disk_errors += 1
                self._discard(path)
                return None
            if entry is None:
                self.stats.disk_stale += 1
                self._discard(path)
                return None
            self.stats.disk_hits += 1
            PlanCache.put(self, key, entry)  # promote; no disk re-write
            return entry

    def put(self, key: PlanKey, entry: PlanEntry) -> None:
        super().put(key, entry)
        if isinstance(entry, FailedPlan):
            return  # negative entries stay memory-only
        path = self._path(key)
        try:
            text = json.dumps({
                "version": self.version, "key": json.dumps(key), "fingerprint": entry.fingerprint,
                "graph": to_json(entry.graph), "report": entry.report.to_dict(),
            })
            os.makedirs(self.directory, exist_ok=True)
            handle, staging = tempfile.mkstemp(
                prefix=".plan-", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(handle, "w", encoding="ascii") as stream:
                    stream.write(text)
                os.replace(staging, path)  # atomic: readers never see a torn file
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise
        except Exception:
            # A graph with no JSON form or an unwritable directory: the
            # memory tier still serves this process; persistence degrades.
            self.stats.disk_errors += 1
            return
        self._poisoned.discard(path)
        self.stats.disk_writes += 1


#: Config fields that never change what the pass pipeline produces — they
#: steer *how a run executes or is observed*, so including them would only
#: fragment the (disk-persistent) plan cache across daemons and jobs:
#: ``tracing`` toggles span recording, ``report_timeout_seconds`` bounds a
#: wait, ``jobs`` sizes the worker pool, ``streaming.spill_directory`` (dropped
#: from the nested ``streaming`` dict) names where a run spills, and
#: ``resilience`` only retries/degrades what the same compiled plan produced,
#: and ``obs`` only samples/retains what an enabled tracer records.
_RUNTIME_ONLY_FIELDS = ("tracing", "report_timeout_seconds", "jobs", "resilience", "obs")


@functools.lru_cache(maxsize=64)
def config_digest(config: Any) -> str:
    """A stable digest of a :class:`~repro.api.config.PashConfig`.

    Uses the config's round-trippable dict form, so any field that changes
    compilation output changes the digest (and therefore the cache key) —
    minus the runtime-only fields listed in :data:`_RUNTIME_ONLY_FIELDS` and
    ``streaming.spill_directory``, which must *not* defeat plan sharing (a
    traced daemon and an untraced one compile identical graphs).
    """
    snapshot = config.to_dict()
    for field_name in _RUNTIME_ONLY_FIELDS:
        snapshot.pop(field_name, None)
    streaming = snapshot.get("streaming")
    if isinstance(streaming, dict):
        streaming.pop("spill_directory", None)
    payload = json.dumps(snapshot, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
