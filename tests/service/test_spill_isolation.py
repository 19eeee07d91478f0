"""Spill-directory isolation under the shared service daemon.

A daemon whose config names one ``spill_directory`` runs every job on that
config as it is: each scheduler run spills under a private ``mkdtemp``
directory of its own beneath it, removed after the run, so concurrent jobs
never see each other's spill files.  Every spill-file creation site calls
``os.makedirs(..., exist_ok=True)``, so a configured-but-missing directory
is created rather than crashed on.
"""

import os
import tempfile
import threading

from repro.api import Pash, PashConfig
from repro.api.config import StreamingConfig
from repro.engine.api import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem

SCRIPT = "cat in.txt | tr a-z A-Z | sort"


def bulk_lines(tag, count=4000):
    return [f"{tag} payload line {index:06d}" for index in range(count)]


def spilling_config(spill_dir, width=2):
    # An 8-byte window forces every buffered edge to spill immediately.
    # Spilling is the pool's business, so the jit tier is pinned to it
    # ("auto" would keep these 4000-line regions in-process).
    return PashConfig.paper_default(
        width,
        backend="jit",
        jit_inner_backend="parallel",
        streaming=StreamingConfig(spill_threshold=8, spill_directory=spill_dir),
    )


def test_concurrent_jobs_sharing_spill_directory_do_not_collide(
    tmp_path, make_daemon, client_for, run_with_deadline
):
    shared = str(tmp_path / "shared-spill")
    daemon = make_daemon(
        executors=4,
        queue_limit=16,
        tenant_quota=16,
        config=spilling_config(shared),
    )
    results = [None] * 8
    errors = []

    def submit(slot):
        try:
            client = client_for(daemon)
            results[slot] = client.submit(
                SCRIPT,
                tenant=f"tenant-{slot}",
                files={"in.txt": bulk_lines(f"tenant{slot}")},
                timeout=25.0,
            )
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()

    def join_all():
        for thread in threads:
            thread.join()

    run_with_deadline(join_all, name="8 spilling submissions")
    assert not errors, errors
    for slot, job in enumerate(results):
        assert job["state"] == "done", job.get("error")
        expected = sorted(line.upper() for line in bulk_lines(f"tenant{slot}"))
        # Byte-identical per job: no cross-job spill-file interleaving.
        assert job["stdout"] == expected
    # Per-job subdirectories were cleaned up after their runs.
    leftovers = [
        name for name in os.listdir(shared) if name.startswith("pash-job-")
    ] if os.path.isdir(shared) else []
    assert leftovers == []


def test_a_spilling_job_leaves_the_spill_directory_empty(tmp_path, make_daemon, monkeypatch):
    shared = str(tmp_path / "shared-spill")
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def spy(*args, **kwargs):
        made.append(real_mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    daemon = make_daemon(executors=1, config=spilling_config(shared))
    from repro.service import ServiceClient

    with ServiceClient(daemon.endpoint, timeout=30.0) as client:
        for slot in range(3):
            lines = bulk_lines(f"job{slot}", 200)
            job = client.submit(SCRIPT, files={"in.txt": lines})
            assert job["stdout"] == sorted(line.upper() for line in lines)
            nodes = job["report"]["metrics"]["nodes"]
            assert sum(node["spilled_bytes"] for node in nodes) > 0
    runs = [path for path in made if os.path.dirname(path) == shared]
    assert len(runs) == 3, made  # one run directory per job, under the base
    assert os.listdir(shared) == []


def test_missing_configured_spill_directory_is_created_not_fatal(tmp_path):
    # Point the engine at a directory that does not exist yet and force
    # spilling: every creation site must mkdir rather than crash.
    missing = str(tmp_path / "never" / "made")
    config = spilling_config(missing)
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem({"in.txt": bulk_lines("solo", 500)})
    )
    compiled = Pash(config).compile(SCRIPT)
    result = compiled.execute(backend="parallel", environment=environment)
    assert result.stdout == sorted(line.upper() for line in bulk_lines("solo", 500))


def test_missing_spill_directory_interpreter_eager_path(tmp_path):
    # The eager-relay simulation path spills too; same guarantee there.
    from repro.runtime.eager import EagerBuffer

    missing = str(tmp_path / "also" / "missing")
    buffer = EagerBuffer(spill_threshold=4, spill_directory=missing)
    buffer.write_all(f"line {index}" for index in range(64))
    buffer.close()
    assert buffer.drain() == [f"line {index}" for index in range(64)]
