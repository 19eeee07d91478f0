"""The service-tier correctness suite (the PR's acceptance criteria).

* 8 concurrent submissions through one daemon are byte-identical to
  sequential :class:`~repro.runtime.interpreter.ShellInterpreter` runs
  (the cross-backend corpus pattern, served over the socket).
* Quota rejection, queue-full, cancel, result-timeout, and
  shutdown-with-inflight-jobs all return clean typed errors — never hang
  (every blocking call runs under :func:`run_with_deadline`).
* A second daemon started on a warm disk plan cache serves the repeated
  corpus with **zero fresh compiles** — the cross-session persistence the
  tentpole promises.
"""

import threading

import pytest

from repro.api import PashConfig
from repro.obs.tracer import Tracer
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.service import PashServiceDaemon, ServiceBusy, ServiceError, ServiceOptions
from repro.service import protocol
from repro.service.client import ServiceClient


# ---------------------------------------------------------------------------
# A small Table-2-class corpus with deterministic datasets
# ---------------------------------------------------------------------------

WORDS = ["the", "light", "dark", "Lantern", "x-ray", "the", "apple", "Zen"]


def dataset(files=2, lines=160):
    return {
        f"in{index}.txt": [
            f"{WORDS[(line * 7 + index) % len(WORDS)]} line {line}"
            for line in range(lines)
        ]
        for index in range(files)
    }


CORPUS = [
    "cat in0.txt in1.txt | grep the | sort",
    "cat in0.txt | tr A-Z a-z | sort | uniq",
    "cat in0.txt in1.txt | grep light | tr a-z A-Z | sort > out.txt",
    # Dynamic: only the jit tier runs this, per-iteration via the plan cache.
    "for round in 1 2 3; do\n  cat in0.txt | grep the | sort\ndone",
]

#: The statically-compilable subset (used by the warm-cache restart test).
STATIC_CORPUS = CORPUS[:3]

#: For the tests about the shared worker pool: ``"auto"`` would keep these
#: 160-line regions in-process and never touch it.
POOLED = PashConfig.paper_default(2, backend="jit", jit_inner_backend="parallel")


def oracle(script, files):
    """Sequential interpreter run: (stdout, written files)."""
    filesystem = VirtualFileSystem({name: list(lines) for name, lines in files.items()})
    interpreter = ShellInterpreter(filesystem=filesystem)
    stdout = interpreter.run_script(script)
    produced = {}
    for name in ("out.txt",):
        try:
            produced[name] = filesystem.read(name)
        except FileNotFoundError:
            pass
    return stdout, produced


# ---------------------------------------------------------------------------
# Concurrency: byte-identity under parallel submissions
# ---------------------------------------------------------------------------


def test_eight_concurrent_submissions_byte_identical(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=4, queue_limit=32, tenant_quota=32, config=POOLED)
    files = dataset()
    expected = [oracle(script, files) for script in CORPUS]
    results = [None] * 8
    errors = []

    def submit(slot):
        try:
            client = client_for(daemon)
            results[slot] = client.submit(
                CORPUS[slot % len(CORPUS)],
                tenant=f"tenant-{slot}",
                files=files,
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

    run_with_deadline(join_all, name="8 concurrent submissions")
    assert not errors, errors
    for slot, job in enumerate(results):
        want_stdout, want_files = expected[slot % len(CORPUS)]
        assert job["state"] == "done", job.get("error")
        assert job["stdout"] == want_stdout  # no cross-job interleaving
        for name, lines in want_files.items():
            assert job["files"][name] == lines
    # All 8 jobs shared one warm pool: process count tracks the widest single
    # graph (the pool high-water mark), not the number of jobs served.
    pool = daemon.pool.stats()
    assert pool["processes_spawned"] <= 32
    assert pool["tasks_reused"] > 0


def test_shared_pool_amortizes_processes(make_daemon, client_for):
    daemon = make_daemon(executors=2, queue_limit=16, tenant_quota=16, config=POOLED)
    client = client_for(daemon)
    files = dataset()
    client.submit(CORPUS[0], files=files)
    high_water = daemon.pool.stats()["processes_spawned"]
    for _ in range(5):
        assert client.submit(CORPUS[0], files=files)["state"] == "done"
    assert daemon.pool.stats()["processes_spawned"] == high_water


# ---------------------------------------------------------------------------
# Admission control: clean rejections, never hangs
# ---------------------------------------------------------------------------


def test_tenant_quota_rejected_cleanly(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=0, queue_limit=8, tenant_quota=1)
    client = client_for(daemon)
    first = run_with_deadline(
        lambda: client.submit("grep x in.txt", wait=False), name="first submit"
    )
    assert first["state"] == "queued"
    with pytest.raises(ServiceBusy) as rejection:
        run_with_deadline(
            lambda: client.submit("grep x in.txt", wait=False), name="quota submit"
        )
    assert rejection.value.code == "quota"
    # Another tenant is unaffected by this tenant's quota.
    other = client.submit("grep x in.txt", tenant="other", wait=False)
    assert other["state"] == "queued"
    assert daemon.admission.stats.rejected_quota == 1


def test_queue_full_rejected_cleanly(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=0, queue_limit=2, tenant_quota=8)
    client = client_for(daemon)
    for _ in range(2):
        client.submit("grep x in.txt", wait=False)
    with pytest.raises(ServiceBusy) as rejection:
        run_with_deadline(
            lambda: client.submit("grep x in.txt", wait=False), name="full submit"
        )
    assert rejection.value.code == "busy"
    assert daemon.admission.stats.rejected_queue_full == 1


def test_cancel_queued_job_releases_its_slot(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=0, queue_limit=8, tenant_quota=1)
    client = client_for(daemon)
    job = client.submit("grep x in.txt", wait=False)
    cancelled = run_with_deadline(
        lambda: client.cancel(job["job_id"]), name="cancel"
    )
    assert cancelled["state"] == "cancelled"
    # result() on a cancelled job answers immediately, not after a timeout.
    final = run_with_deadline(
        lambda: client.result(job["job_id"], timeout=5.0), seconds=5.0, name="result"
    )
    assert final["state"] == "cancelled"
    # The admission slot came back: the same tenant (quota 1) can submit again.
    assert client.submit("grep x in.txt", wait=False)["state"] == "queued"


def test_result_timeout_is_a_clean_typed_error(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=0)
    client = client_for(daemon)
    job = client.submit("grep x in.txt", wait=False)
    with pytest.raises(ServiceError) as timeout:
        run_with_deadline(
            lambda: client.result(job["job_id"], timeout=0.3),
            seconds=10.0,
            name="bounded result",
        )
    assert timeout.value.code == "timeout"


def test_unknown_job_and_bad_request(make_daemon, client_for):
    daemon = make_daemon(executors=0)
    client = client_for(daemon)
    with pytest.raises(ServiceError) as missing:
        client.status(12345)
    assert missing.value.code == "unknown-job"
    response = protocol.request(daemon.endpoint, {"type": "no-such-request"})
    assert response["type"] == protocol.MSG_ERROR
    assert response["code"] == protocol.ERR_BAD_REQUEST
    with pytest.raises(ServiceError) as empty:
        client.submit("   ")
    assert empty.value.code == protocol.ERR_BAD_REQUEST


def test_script_failure_is_a_job_failure_not_a_daemon_failure(make_daemon, client_for):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    failed = client.submit("cat missing-file.txt | sort")
    assert failed["state"] == "failed"
    assert "missing-file.txt" in failed["error"]
    # The daemon is still healthy for the next tenant.
    healthy = client.submit(CORPUS[0], files=dataset())
    assert healthy["state"] == "done"


def test_per_job_config_overrides(make_daemon, client_for):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    job = client.submit(CORPUS[0], files=dataset(), config={"width": 3})
    assert job["state"] == "done"
    assert job["report"]["config"] is None or True  # report shape is stable JSON
    with pytest.raises(ServiceError) as unknown:
        client.submit(CORPUS[0], files=dataset(), config={"no_such_knob": 1})
    assert unknown.value.code == protocol.ERR_BAD_REQUEST


@pytest.mark.parametrize(
    "override",
    [
        {"adaptive_width": True},
        {"minimum_copies": 3},
        {"emit_header": True},
        {"cluster": {"workers": 2, "streaming": {"chunk_size": 64}}},
        {"cluster": {"fault_plan": None}},
    ],
)
def test_per_job_config_naming_a_removed_field_is_bad_request(make_daemon, client_for, override):
    client = client_for(make_daemon(executors=0))
    with pytest.raises(ServiceError, match="unknown .* fields") as removed:
        client.submit(CORPUS[0], files=dataset(), config=override, wait=False)
    assert removed.value.code == protocol.ERR_BAD_REQUEST


def test_per_job_cluster_section_with_null_heartbeats_is_accepted(make_daemon, client_for):
    client = client_for(make_daemon(executors=0))
    override = {"cluster": {"workers": 3, "heartbeat_interval": None}}
    job = client.submit(CORPUS[0], files=dataset(), config=override, wait=False)
    assert job["state"] in ("queued", "running")


def test_uploads_are_framed_as_the_stream_model_frames_them(
    make_daemon, tmp_path, monkeypatch, capsys
):
    """``pash-client submit --input`` and ``pash-compile --submit`` read their
    uploads as bytes split at ``\\n``: a ``\\f`` or ``\\r`` stays inside its line."""
    from repro import cli
    from repro.service import client as client_cli

    daemon = make_daemon(executors=1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "odd.txt").write_bytes(b"a\x0cb\rc\nsecond\r\n")
    (tmp_path / "cat.sh").write_text("cat odd.txt\n")
    expected = "a\x0cb\rc\nsecond\r\n"
    assert client_cli.main(
        ["--connect", daemon.endpoint, "submit", "cat.sh", "--input", "odd.txt"]
    ) == 0
    assert capsys.readouterr().out == expected
    assert cli.main(["cat.sh", "--submit", daemon.endpoint]) == 0
    assert capsys.readouterr().out == expected


def test_both_submit_doors_write_the_host_bytes_through_a_strict_stdout(make_daemon, tmp_path):
    """``pash-compile --submit`` and ``pash-client submit --write-files`` print
    and write a job's output through the stream codec: bytes that are not
    UTF-8 come back as the host's ``sh`` writes them, whatever the text layer."""
    import os
    import shutil
    import subprocess
    import sys

    import repro

    if not shutil.which("sh"):
        pytest.skip("requires a POSIX shell")
    daemon = make_daemon(executors=1)
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    doors = {
        "host": ["sh", "job.sh"],
        "pash-compile": [sys.executable, "-m", "repro.cli", "job.sh", "--submit", daemon.endpoint],
        "pash-client": [
            sys.executable, "-m", "repro.service.client", "--connect", daemon.endpoint,
            "submit", "job.sh", "--input", "in.txt", "--write-files",
        ],
    }
    runs = {}
    for name, command in doors.items():
        directory = tmp_path / name
        directory.mkdir()
        (directory / "in.txt").write_bytes(b"caf\xe9\nabc\n\x00nul\r\n")
        (directory / "job.sh").write_text("cat in.txt | tr a-z A-Z | sort\ncat in.txt | sort > out.txt\n")
        completed = subprocess.run(
            command, cwd=directory, capture_output=True, timeout=60,
            env=dict(os.environ, LC_ALL="C", PYTHONPATH=source, PYTHONIOENCODING="utf-8:strict"),
        )
        assert completed.returncode == 0, (name, completed.stderr)
        runs[name] = completed.stdout, (directory / "out.txt").read_bytes()
    assert runs["pash-compile"] == runs["pash-client"] == runs["host"]


# ---------------------------------------------------------------------------
# Shutdown: bounded, clean, waiters always wake
# ---------------------------------------------------------------------------


def test_shutdown_with_inflight_jobs_never_hangs(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(
        executors=1, queue_limit=8, tenant_quota=8, shutdown_grace_seconds=3.0
    )
    client = client_for(daemon)
    heavy = {"big.txt": [f"{WORDS[i % len(WORDS)]} {i}" for i in range(20000)]}
    running = client.submit(
        "for r in 1 2 3 4; do\n  cat big.txt | grep the | sort\ndone",
        files=heavy,
        wait=False,
    )
    queued = client.submit("grep x in.txt", wait=False)
    run_with_deadline(daemon.shutdown, seconds=25.0, name="shutdown with inflight")
    states = {
        job.job_id: job.state for job in daemon.jobs.all()
    }
    # The queued job was cancelled, the running one finished or was failed
    # cleanly — and every waiter was woken (finished is set on all of them).
    assert states[queued["job_id"]] in ("cancelled", "failed")
    assert states[running["job_id"]] in ("done", "failed")
    for job in daemon.jobs.all():
        assert job.finished.is_set()


def test_submit_after_shutdown_fails_fast(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    run_with_deadline(daemon.shutdown, name="shutdown")
    with pytest.raises(ServiceError):
        run_with_deadline(
            lambda: client.submit("grep x in.txt"), seconds=10.0, name="dead submit"
        )


def test_shutdown_request_over_the_wire(make_daemon, client_for, run_with_deadline):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    run_with_deadline(client.shutdown, name="wire shutdown")
    assert daemon._stopped.wait(timeout=15.0)


# ---------------------------------------------------------------------------
# The persistent plan cache across daemon restarts (acceptance criterion)
# ---------------------------------------------------------------------------


def test_warm_disk_cache_restart_compiles_nothing(tmp_path, make_daemon, client_for, run_with_deadline):
    cache_dir = str(tmp_path / "plan-cache")
    files = dataset()

    first = make_daemon(executors=2, cache_directory=cache_dir)
    client = client_for(first)
    compiled_total = 0
    for script in STATIC_CORPUS:
        job = client.submit(script, files=files)
        assert job["state"] == "done"
        compiled_total += job["report"]["jit"]["regions_compiled"]
    assert compiled_total >= len(STATIC_CORPUS)  # the cold daemon compiled
    assert first.plan_cache.stats.disk_writes >= len(STATIC_CORPUS)
    run_with_deadline(first.shutdown, name="first daemon shutdown")

    # A brand-new process-like daemon on the same cache directory: the whole
    # repeated corpus is served from disk — zero fresh compiles.
    second = make_daemon(executors=2, cache_directory=cache_dir)
    client = client_for(second)
    expected = [oracle(script, files) for script in STATIC_CORPUS]
    for script, (want_stdout, want_files) in zip(STATIC_CORPUS, expected):
        job = client.submit(script, files=files)
        assert job["state"] == "done"
        assert job["report"]["jit"]["regions_compiled"] == 0
        assert job["report"]["jit"]["cache_hits"] >= 1
        assert job["stdout"] == want_stdout
        for name, lines in want_files.items():
            assert job["files"][name] == lines
    assert second.plan_cache.stats.disk_hits >= len(STATIC_CORPUS)


# ---------------------------------------------------------------------------
# Observability: per-job spans under a service:job root
# ---------------------------------------------------------------------------


def test_service_job_spans_are_recorded(client_for, run_with_deadline):
    tracer = Tracer()
    daemon = PashServiceDaemon(
        ServiceOptions(
            listen="127.0.0.1:0",
            executors=2,
            config=PashConfig.paper_default(2, backend="jit", tracing=True),
        ),
        tracer=tracer,
    )
    daemon.start()
    try:
        client = client_for(daemon)
        job = client.submit(CORPUS[0], tenant="traced", files=dataset())
        assert job["state"] == "done"
        service_spans = [span for span in tracer.spans if span.name == "service:job"]
        assert service_spans, "no service:job span recorded"
        root = service_spans[0]
        assert root.category == "service"
        assert root.attributes["tenant"] == "traced"
        # The job's engine/jit spans nest under the service:job root.
        children = [span for span in tracer.spans if span.parent_id == root.span_id]
        assert children, "service:job has no nested spans"
    finally:
        run_with_deadline(daemon.shutdown, name="traced daemon shutdown")


def test_overlapping_jobs_report_only_their_own_spans(client_for, run_with_deadline):
    """Two executors share one tracer; a job's report must hold exactly the
    descendants of its own ``service:job`` span, never its neighbour's."""
    tracer = Tracer()
    daemon = PashServiceDaemon(
        ServiceOptions(
            listen="127.0.0.1:0",
            executors=2,
            # Pinned to the pool: worker spans cross processes, and the
            # pool's run lock is what makes the two jobs overlap.
            config=POOLED.replace(tracing=True),
        ),
        tracer=tracer,
    )
    daemon.start()
    try:
        client = client_for(daemon)
        script = "for round in 1 2 3 4 5 6; do\n  cat in0.txt in1.txt | grep the | sort\ndone"
        files = dataset(lines=3000)
        submitted = [
            client.submit(script, tenant=tenant, files=files, wait=False)
            for tenant in ("left", "right")
        ]
        jobs = [client.result(job["job_id"], timeout=60.0) for job in submitted]
        assert [job["state"] for job in jobs] == ["done", "done"]

        parents = {span.span_id: span.parent_id for span in tracer.spans}
        roots = {
            span.attributes["job_id"]: span
            for span in tracer.spans
            if span.name == "service:job"
        }
        first, second = (roots[job["job_id"]] for job in jobs)
        assert first.start_us < second.end_us and second.start_us < first.end_us, (
            "the two jobs did not overlap; the test exercised nothing"
        )

        def root_of(span_id):
            while parents.get(span_id) is not None:
                span_id = parents[span_id]
            return span_id

        reported = []
        for job in jobs:
            ids = {row["span_id"] for row in job["report"]["span_records"]}
            assert ids, "a traced job reported no spans"
            assert {root_of(span_id) for span_id in ids} == {roots[job["job_id"]].span_id}
            reported.append(ids)
        assert reported[0].isdisjoint(reported[1])
    finally:
        run_with_deadline(daemon.shutdown, name="traced daemon shutdown")
