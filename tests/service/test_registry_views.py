"""The registry is a view: after a seeded job mix the scrape equals the owners.

One count per event means the number ``/metrics`` shows *is* the integer the
owning object keeps — the plan cache's ``CacheStats``, the ``WorkerPool``'s
counters, the ``AdmissionController``, the daemon's own job counters — and
the families with no long-lived owner are the sum of the reports the tenants
received.  The mix is generated (``PASH_TEST_SEED`` widens coverage; every
failure message carries the seed) and deliberately hits each family: jit
and parallel jobs, a tenant over quota, an injected ``service:executor``
fault that is retried, one that exhausts its retries and degrades, a job
that fails, and a plan cache too small for the distinct regions.
"""

import importlib.util
import os
import pathlib
import random
import re

import pytest

from repro.api.config import PashConfig
from repro.jit.cache import PlanCache
from repro.service.admission import ServiceBusy

ROOT = pathlib.Path(__file__).resolve().parents[2]
BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
WORDS = ["light", "dark", "apple", "pear", "fig", "cherry"]


@pytest.fixture(scope="module")
def check_metrics():
    spec = importlib.util.spec_from_file_location(
        "check_metrics", ROOT / "tools" / "check_metrics.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def catalogue():
    """``{family: type}`` from the table in docs/OBSERVABILITY.md."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    rows = re.findall(r"^\| `(pash_\w+)` \| (counter|gauge|histogram) \|", text, re.M)
    assert len(rows) == len(dict(rows)), "a family is listed twice"
    return dict(rows)


def resilience(max_fires):
    """One injected executor fault per job, retried once, then degraded."""
    return {
        "resilience": {
            "max_retries": 1,
            "degrade": True,
            "retry_base_seconds": 0.0,
            "faults": [{"point": "service:executor", "max_fires": max_fires}],
        }
    }


def generated_jobs(rng, count):
    """``(script, files, backend, config)`` rows; few distinct regions, many repeats."""
    jobs = []
    for index in range(count):
        word = rng.choice(WORDS[:4])
        lines = [f"{rng.choice(WORDS)} {rng.randrange(100)}" for _ in range(rng.randrange(5, 60))]
        script = rng.choice(
            [
                f"grep {word} a.txt | sort",
                f"cat a.txt b.txt | grep -v {word} | sort | uniq",
                f"for r in 1 2; do grep {word} a.txt | sort | head -n 3; done",
            ]
        )
        files = {"a.txt": lines, "b.txt": lines[::-1]}
        config = None
        if index == 0:
            config = resilience(max_fires=0)  # every attempt fails: retried, then degraded
        elif index == 1 or rng.random() < 0.3:
            config = resilience(max_fires=1)  # the retry succeeds
        jobs.append((script, files, rng.choice(["jit", "jit", "parallel"]), config))
    # Whatever the seed drew: three distinct jit loops (a plan-cache hit on
    # each second iteration, more plans than the cache holds) and one pool job.
    for index, word in zip((2, 3, 4), WORDS):
        jobs[index] = (f"for r in 1 2; do grep {word} a.txt | sort; done", jobs[index][1], "jit", None)
    jobs[5] = (jobs[5][0], jobs[5][1], "parallel", jobs[5][3])
    return jobs


def scraped(snapshot):
    """``{(family, label value or None): number}`` for counters and gauges."""
    values = {}
    for family, document in snapshot.items():
        for entry in document["values"]:
            if "value" in entry:
                (label,) = list(entry["labels"].values()) or [None]
                values[family, label] = entry["value"]
    return values


@pytest.mark.parametrize("seed", [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_the_scrape_equals_the_owners_after_a_seeded_job_mix(
    seed, make_daemon, client_for, run_with_deadline, check_metrics
):
    rng = random.Random(seed)
    daemon = make_daemon(executors=2, tenant_quota=1, metrics_port=0)
    daemon.plan_cache = PlanCache(capacity=2)
    client = client_for(daemon)

    done = []
    for script, files, backend, config in generated_jobs(rng, 10):
        tenant = f"t{rng.randrange(3)}"
        request = dict(tenant=tenant, files=files, backend=backend, config=config)
        job = run_with_deadline(lambda: client.submit(script, **request))
        assert job["state"] == "done", (seed, job.get("error"))
        done.append(job)
    failed = client.submit("cat missing.txt | sort", tenant="t0", backend="parallel")
    assert failed["state"] == "failed", seed

    # A tenant over quota: its first job is held in flight on the pool's
    # run lock, so the second submission is refused deterministically.
    files = {"a.txt": ["b", "a"]}
    with daemon.pool.run_lock:
        held = client.submit(
            "sort a.txt", tenant="greedy", files=files, backend="parallel", wait=False
        )
        with pytest.raises(ServiceBusy):
            client.submit("sort a.txt", tenant="greedy", files=files, wait=False)
    done.append(run_with_deadline(lambda: client.result(held["job_id"])))
    assert done[-1]["state"] == "done", seed

    payload = run_with_deadline(client.metrics)
    check_metrics.lint_text(payload["exposition"])
    snapshot = payload["snapshot"]
    stats = client.stats()
    cache, pool, admission = stats["plan_cache"], stats["pool"], stats["admission"]
    reports = [job["report"] for job in done]

    def total(read):
        return sum(read(report) for report in reports)

    expected = {
        ("pash_jobs_completed_total", None): len(done),
        ("pash_jobs_failed_total", None): 1,
        ("pash_jobs_cancelled_total", None): 0,
        ("pash_admissions_total", None): admission["admitted"],
        ("pash_rejections_total", "busy"): admission["rejected_queue_full"],
        ("pash_rejections_total", "quota"): admission["rejected_quota"],
        ("pash_queue_depth", None): stats["queue_depth"],
        ("pash_plan_cache_requests_total", "hit"): cache["hits"],
        ("pash_plan_cache_requests_total", "miss"): cache["misses"],
        ("pash_plan_cache_requests_total", "negative_hit"): cache["negative_hits"],
        ("pash_plan_cache_evictions_total", None): cache["evictions"],
        ("pash_plan_cache_disk_total", "hit"): cache["disk_hits"],
        ("pash_plan_cache_disk_total", "write"): cache["disk_writes"],
        ("pash_plan_cache_disk_total", "stale"): cache["disk_stale"],
        ("pash_plan_cache_disk_total", "error"): cache["disk_errors"],
        ("pash_pool_processes_spawned_total", None): pool["processes_spawned"],
        ("pash_pool_tasks_reused_total", None): pool["tasks_reused"],
        ("pash_pool_workers_replaced_total", None): pool["workers_replaced"],
        ("pash_pool_workers", None): pool["workers"],
        ("pash_runs_retried_total", None): total(lambda r: r["metrics"]["runs_retried"]),
        ("pash_degraded_runs_total", None): total(lambda r: r["metrics"]["degraded_runs"]),
        ("pash_jit_regions_inline_total", None): total(
            lambda r: r["jit"]["regions_inline"] if r["jit"] else 0
        ),
        ("pash_engine_bytes_moved_total", None): total(
            lambda r: r["metrics"]["derived"]["total_bytes_moved"]
        ),
        ("pash_engine_spilled_bytes_total", None): total(
            lambda r: r["metrics"]["derived"]["total_spilled_bytes"]
        ),
    }
    values = scraped(snapshot)
    uptime = values.pop(("pash_uptime_seconds", None))
    assert 0 < uptime <= stats["uptime_seconds"], seed
    assert values == expected, seed

    # The mix reached every owner (a view that reads 0 == 0 proves nothing).
    assert admission["admitted"] == len(done) + 1 and admission["rejected_quota"] == 1, seed
    assert cache["hits"] and cache["misses"] and cache["evictions"], seed
    assert pool["processes_spawned"] and pool["tasks_reused"], seed
    assert expected["pash_runs_retried_total", None] >= 2, seed
    assert expected["pash_degraded_runs_total", None] == 1, seed
    assert expected["pash_jit_regions_inline_total", None] > 0, seed
    assert expected["pash_engine_bytes_moved_total", None] > 0, seed

    by_tenant = {
        entry["labels"]["tenant"]: entry["count"]
        for entry in snapshot["pash_job_seconds"]["values"]
    }
    assert sum(by_tenant.values()) == len(done) + 1, seed  # the failed job ran too
    assert by_tenant["greedy"] == 1, seed

    # The catalogue in the docs is exactly what is served.
    assert {name: doc["type"] for name, doc in snapshot.items()} == catalogue(), seed


def test_two_daemons_in_one_process_keep_disjoint_registries(
    make_daemon, client_for, run_with_deadline
):
    """The case the old process-global install/restore dance existed for:
    whichever daemon started last used to collect both daemons' pool and
    plan-cache events."""
    config = PashConfig.paper_default(2, backend="jit", jit_inner_backend="parallel")
    first, second = make_daemon(executors=1, config=config), make_daemon(executors=1, config=config)
    assert first.metrics is not second.metrics
    files = {"a.txt": ["b", "a", "c"]}
    for daemon, jobs in ((first, 1), (second, 3)):
        for _ in range(jobs):
            job = run_with_deadline(lambda: client_for(daemon).submit("sort a.txt", files=files))
            assert job["state"] == "done"
    run_with_deadline(first.shutdown)  # and stopping one leaves the other's view intact
    for daemon, jobs in ((first, 1), (second, 3)):
        values = scraped(daemon.metrics.snapshot())
        stats = daemon.stats()
        assert values["pash_jobs_completed_total", None] == jobs
        assert values["pash_plan_cache_requests_total", "miss"] == 1
        assert stats["plan_cache"]["misses"] == 1
        assert values["pash_plan_cache_requests_total", "hit"] == jobs - 1
        assert values["pash_pool_tasks_reused_total", None] == stats["pool"]["tasks_reused"] > 0
