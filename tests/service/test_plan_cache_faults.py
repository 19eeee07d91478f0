"""Fault injection against the persistent :class:`DiskPlanCache`.

The disk tier's contract: a bad file — corrupted, truncated, written by a
different release, or hash-colliding — is **never fatal and never wrong**.
Every failure mode reads as a miss, the offender is removed (or poisoned in
memory when removal is impossible), and the next fresh compile re-persists
a good entry.  Entries are JSON files; one that holds anything else — a
pickle whose loading would run code included — is a corrupt file, never
evaluated.  The end-to-end tests drive a real :class:`JitDriver` over a
sabotaged cache directory and assert byte-identical output either way.
"""

import glob
import json
import os
import pickle
import threading

from repro.api import PashConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.json_form import to_json
from repro.engine.api import ExecutionEnvironment
from repro.jit.cache import (
    PLAN_FORMAT_VERSION,
    CompiledPlan,
    DiskPlanCache,
    FailedPlan,
    PlanCache,
    cache_version,
)
from repro.jit.driver import JitDriver
from repro.runtime.streams import VirtualFileSystem
from repro.transform.pipeline import OptimizationReport

KEY = ("cat a.txt | sort", (("x", "1"),), "0123456789abcdef")
OTHER_KEY = ("cat b.txt | sort", (), "fedcba9876543210")


def make_plan(fingerprint="cat a.txt | sort"):
    graph = DFGBuilder().build_from_script("cat a.txt | sort")
    return CompiledPlan(graph=graph, report=OptimizationReport(), fingerprint=fingerprint)


def plan_files(directory):
    return sorted(glob.glob(os.path.join(directory, "*.plan")))


def write_entry(path, version, key, graph=None):
    """A cache file as :class:`DiskPlanCache` writes one, with chosen fields."""
    plan = make_plan()
    payload = {"version": version, "key": json.dumps(key), "fingerprint": plan.fingerprint,
               "graph": to_json(plan.graph) if graph is None else graph,
               "report": plan.report.to_dict()}
    with open(path, "w") as handle:
        json.dump(payload, handle)


class _Marker:
    """Loading a pickle of this creates ``path``: code run by the loader."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


# ---------------------------------------------------------------------------
# Unit level: one cache instance, files sabotaged directly on disk
# ---------------------------------------------------------------------------


def test_round_trip_across_instances(tmp_path):
    first = DiskPlanCache(str(tmp_path))
    first.put(KEY, make_plan())
    assert first.stats.disk_writes == 1
    assert len(plan_files(str(tmp_path))) == 1

    second = DiskPlanCache(str(tmp_path))
    entry = second.get(KEY)
    assert isinstance(entry, CompiledPlan)
    assert entry.fingerprint == "cat a.txt | sort"
    assert entry.graph.describe() == make_plan().graph.describe()
    assert entry.report == OptimizationReport()
    assert second.stats.disk_hits == 1
    # Promoted into memory: the next get is a pure memory hit.
    second.get(KEY)
    assert second.stats.hits == 1
    assert second.stats.disk_hits == 1


def test_corrupted_file_reads_as_miss_and_is_removed(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    cache.put(KEY, make_plan())
    path = plan_files(str(tmp_path))[0]
    with open(path, "wb") as handle:
        handle.write(b"\x00garbage that is not JSON\xff")

    fresh = DiskPlanCache(str(tmp_path))
    assert fresh.get(KEY) is None
    assert fresh.stats.disk_errors == 1
    assert not os.path.exists(path), "corrupt file should be unlinked"
    # A fresh compile re-puts cleanly and future readers hit again.
    fresh.put(KEY, make_plan())
    assert isinstance(DiskPlanCache(str(tmp_path)).get(KEY), CompiledPlan)


def test_truncated_file_reads_as_miss_and_is_removed(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    cache.put(KEY, make_plan())
    path = plan_files(str(tmp_path))[0]
    size = os.path.getsize(path)
    with open(path, "rb+") as handle:
        handle.truncate(size // 2)  # a crashed non-atomic writer

    fresh = DiskPlanCache(str(tmp_path))
    assert fresh.get(KEY) is None
    assert fresh.stats.disk_errors == 1
    assert not os.path.exists(path)


def test_stale_cache_version_invalidates_on_first_touch(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    path = cache._path(KEY)
    write_entry(path, "0.0.1+plan0", KEY)

    assert cache.get(KEY) is None
    assert cache.stats.disk_stale == 1
    assert not os.path.exists(path), "stale file should be unlinked"
    # The real version string couples release and plan-format versions.
    assert cache_version().endswith(f"+plan{PLAN_FORMAT_VERSION}")


def test_hash_collision_reads_as_miss_without_deleting(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    path = cache._path(KEY)
    # Simulate a filename collision: the payload belongs to a different key.
    write_entry(path, cache.version, OTHER_KEY)

    assert cache.get(KEY) is None
    assert os.path.exists(path), "a collision file belongs to its real owner"
    assert cache.stats.disk_errors == 0


def test_foreign_payload_shape_is_discarded(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    path = cache._path(KEY)
    write_entry(path, cache.version, KEY, graph="junk")
    assert cache.get(KEY) is None
    assert cache.stats.disk_errors == 1
    assert not os.path.exists(path)


def test_a_dangling_edge_in_an_entry_is_discarded(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    path = cache._path(KEY)
    graph = to_json(make_plan().graph)
    graph["edges"][0]["target"] = 99
    write_entry(path, cache.version, KEY, graph=graph)
    assert cache.get(KEY) is None
    assert cache.stats.disk_errors == 1
    assert not os.path.exists(path)


def test_a_pickled_entry_is_never_loaded(tmp_path):
    marker = tmp_path / "marker"
    cache = DiskPlanCache(str(tmp_path / "plans"))
    path = cache._path(KEY)
    with open(path, "wb") as handle:
        handle.write(pickle.dumps({"version": cache.version, "key": KEY, "entry": _Marker(marker)}))
    assert cache.get(KEY) is None
    assert cache.stats.disk_errors == 1
    assert not os.path.exists(path)
    assert not marker.exists()


def test_negative_entries_stay_memory_only(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    cache.put(KEY, FailedPlan(reason="unsupported", fingerprint="cat a.txt | sort"))
    assert plan_files(str(tmp_path)) == []
    assert cache.stats.disk_writes == 0
    assert isinstance(cache.get(KEY), FailedPlan)  # served from memory
    assert DiskPlanCache(str(tmp_path)).get(KEY) is None  # but never persisted


def test_a_plan_without_a_json_form_degrades_to_memory_tier(tmp_path):
    cache = DiskPlanCache(str(tmp_path))
    poisoned = CompiledPlan(
        graph=lambda: None, report=OptimizationReport(), fingerprint="f"  # not a graph
    )
    cache.put(KEY, poisoned)
    assert cache.stats.disk_errors == 1
    assert plan_files(str(tmp_path)) == []
    assert cache.get(KEY) is poisoned  # memory tier still serves this process


def test_config_digest_ignores_runtime_only_knobs(tmp_path):
    from repro.api.config import StreamingConfig
    from repro.jit.cache import config_digest

    base = PashConfig.paper_default(2, backend="jit")
    # Observability and execution-time knobs must not fragment the cache:
    # a traced daemon and an untraced CLI compile identical graphs.
    variants = [
        base.replace(tracing=True),
        base.replace(report_timeout_seconds=5.0),
        base.replace(jobs=7),
        base.replace(
            streaming=StreamingConfig(spill_directory=str(tmp_path / "spill"))
        ),
    ]
    for variant in variants:
        assert config_digest(variant) == config_digest(base)
    # ... while anything the pass pipeline sees still changes the key.
    assert config_digest(base.replace(width=4)) != config_digest(base)
    assert config_digest(
        base.replace(streaming=StreamingConfig(spill_threshold=8))
    ) != config_digest(base)


def test_plan_cache_is_thread_safe_under_contention():
    cache = PlanCache(capacity=32)
    errors = []

    def worker(seed):
        try:
            for step in range(200):
                key = (f"fp-{(seed + step) % 48}", (), "digest")
                if cache.get(key) is None:
                    cache.put(key, make_plan(fingerprint=key[0]))
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors, errors
    assert len(cache) <= 32
    total = cache.stats.hits + cache.stats.misses
    assert total == 8 * 200


# ---------------------------------------------------------------------------
# End to end: a JitDriver over a sabotaged cache directory
# ---------------------------------------------------------------------------

SCRIPT = "cat in.txt | tr a-z A-Z | sort | uniq"
FILES = {"in.txt": ["delta", "alpha", "beta", "alpha", "gamma"]}
EXPECTED = ["ALPHA", "BETA", "DELTA", "GAMMA"]


def run_once(cache_dir):
    driver = JitDriver(
        config=PashConfig.paper_default(2, backend="jit"),
        environment=ExecutionEnvironment(
            filesystem=VirtualFileSystem({k: list(v) for k, v in FILES.items()})
        ),
        cache=DiskPlanCache(cache_dir),
    )
    result = driver.run(SCRIPT)
    return result, driver.cache


def test_driver_recompiles_after_cache_directory_corruption(tmp_path):
    cache_dir = str(tmp_path / "plans")
    cold, cold_cache = run_once(cache_dir)
    assert cold.stdout == EXPECTED
    assert cold.jit.regions_compiled >= 1
    assert cold_cache.stats.disk_writes >= 1

    # A warm restart hits disk: zero fresh compiles.
    warm, warm_cache = run_once(cache_dir)
    assert warm.stdout == EXPECTED
    assert warm.jit.regions_compiled == 0
    assert warm_cache.stats.disk_hits >= 1

    # Sabotage every plan file; the next run compiles fresh — same bytes out.
    for path in plan_files(cache_dir):
        with open(path, "wb") as handle:
            handle.write(b"not JSON")
    rebuilt, rebuilt_cache = run_once(cache_dir)
    assert rebuilt.stdout == EXPECTED
    assert rebuilt.jit.regions_compiled >= 1
    assert rebuilt_cache.stats.disk_errors >= 1

    # ... and the fresh compile healed the disk tier for the next process.
    healed, healed_cache = run_once(cache_dir)
    assert healed.stdout == EXPECTED
    assert healed.jit.regions_compiled == 0
    assert healed_cache.stats.disk_hits >= 1


def test_driver_survives_stale_version_fleet_upgrade(tmp_path):
    cache_dir = str(tmp_path / "plans")
    cold, _ = run_once(cache_dir)
    assert cold.stdout == EXPECTED

    # Rewrite every entry as if an older release had produced it.
    for path in plan_files(cache_dir):
        with open(path) as handle:
            payload = json.load(handle)
        payload["version"] = "0.0.1+plan0"
        with open(path, "w") as handle:
            json.dump(payload, handle)

    upgraded, upgraded_cache = run_once(cache_dir)
    assert upgraded.stdout == EXPECTED
    assert upgraded.jit.regions_compiled >= 1  # stale entries forced a compile
    assert upgraded_cache.stats.disk_stale >= 1
    assert plan_files(cache_dir), "the recompile re-persisted fresh entries"
