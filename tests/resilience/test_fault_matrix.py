"""The fault matrix: injected faults × backends → byte-identity or typed error.

Each test arms a deterministic :class:`FaultPlan` through the public config
surface and asserts the resilience contract end to end:

* with degradation on, a run whose parallel plan keeps failing (killed pool
  worker, exhausted spill disk, poisoned channel) completes **byte-identical**
  to the sequential interpreter oracle, with ``degraded_runs`` visible in the
  metrics and ``resilience:*`` spans in the trace;
* with degradation off, the same fault surfaces as a *typed* error
  (``ExecutionError``/``OSError``) within the configured deadline — never a
  hang, never a garbled partial result.
"""

import os
import signal
import time

import pytest

from repro.api import Pash, PashConfig, ResilienceConfig
from repro.obs.tracer import Tracer
from repro.resilience import fault
from repro.resilience.fault import (
    CHANNEL_READ,
    CLUSTER_HEARTBEAT,
    POOL_WORKER_EXEC,
    SPILL_WRITE,
    FaultSpec,
)
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem
from repro.workloads.oneliners import get_one_liner

WIDTH = 2
LINES = 120

#: Table-2-class workload driving every matrix cell.
BENCHMARK = get_one_liner("sort")


@pytest.fixture(autouse=True)
def _clean_injector():
    fault.clear()
    yield
    fault.clear()


DATASET = BENCHMARK.correctness_dataset(WIDTH, LINES)


def fresh_environment():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(
            {name: list(lines) for name, lines in DATASET.items()}
        )
    )


def produced(result_or_files):
    """A run's *output* files (the dataset's input files stripped)."""
    files = getattr(result_or_files, "files", result_or_files)
    return {name: lines for name, lines in files.items() if name not in DATASET}


def oracle():
    """The sequential interpreter's output: the byte-identity reference."""
    compiled = Pash.compile(BENCHMARK.script_for_width(WIDTH), PashConfig.paper_default(WIDTH))
    result = compiled.execute(backend="interpreter", environment=fresh_environment())
    output = produced(result)
    assert any(lines for lines in output.values())  # a vacuous oracle proves nothing
    return output


ORACLE_FILES = oracle()


def armed_config(*specs, **overrides):
    overrides.setdefault("max_retries", 1)
    overrides.setdefault("degrade", True)
    overrides.setdefault("retry_base_seconds", 0.0)
    overrides.setdefault("retry_jitter", 0.0)
    resilience = ResilienceConfig(faults=tuple(specs), **overrides)
    # The jit cells inject faults into pool workers, so they pin the pool:
    # "auto" would keep this dataset's regions in-process, out of reach.
    return PashConfig.paper_default(
        WIDTH, resilience=resilience, jit_inner_backend="parallel"
    )


def run_supervised(config, backend, **options):
    tracer = Tracer()
    compiled = Pash(config, tracer=tracer).compile(BENCHMARK.script_for_width(WIDTH))
    result = compiled.execute(backend=backend, environment=fresh_environment(), **options)
    return result, tracer


# ---------------------------------------------------------------------------
# parallel backend
# ---------------------------------------------------------------------------


def test_parallel_degrades_past_killed_workers():
    """SIGKILLed pool worker mid-run → retry → interpreter, byte-identical."""
    config = armed_config(FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0))
    result, tracer = run_supervised(config, "parallel")
    assert produced(result) == ORACLE_FILES
    assert result.metrics.degraded_runs > 0
    assert result.metrics.runs_retried > 0
    names = {span.name for span in tracer.spans}
    assert "resilience:retry" in names
    assert "resilience:degrade" in names


def test_parallel_degrades_past_spill_enospc(tmp_path):
    """Injected ENOSPC on every spill write → interpreter, byte-identical."""
    from repro.api.config import StreamingConfig

    config = armed_config(
        FaultSpec(point=SPILL_WRITE, mode="error", errno_name="ENOSPC", max_fires=0)
    ).replace(
        streaming=StreamingConfig(spill_threshold=1, spill_directory=str(tmp_path))
    )
    result, _ = run_supervised(config, "parallel")
    assert produced(result) == ORACLE_FILES
    assert result.metrics.degraded_runs > 0


def test_parallel_channel_poison_after_bytes_degrades():
    """kill-after-N-bytes semantics on the channel plane (error mode).

    Fused, this workload is two `tr | sort` workers and a gathered merge: no
    channel at all.  Unfused, each `tr` feeds its `sort` through one.
    """
    config = armed_config(
        FaultSpec(point=CHANNEL_READ, mode="error", errno_name="EIO", after_bytes=64, max_fires=0)
    ).replace(fuse_stages=False)
    result, _ = run_supervised(config, "parallel")
    assert produced(result) == ORACLE_FILES
    assert result.metrics.degraded_runs > 0


def test_parallel_no_degrade_is_a_typed_error_within_deadline():
    config = armed_config(
        FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0),
        max_retries=1,
        degrade=False,
        deadline_seconds=60.0,
    )
    started = time.monotonic()
    with pytest.raises((ExecutionError, OSError)):
        run_supervised(config, "parallel")
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# jit backend
# ---------------------------------------------------------------------------


def run_jit(config):
    from repro.api import run

    tracer = Tracer()
    environment = fresh_environment()
    result = run(
        BENCHMARK.script_for_width(WIDTH),
        config=config,
        backend="jit",
        environment=environment,
        tracer=tracer,
    )
    return result, tracer


def test_jit_regions_degrade_past_killed_workers():
    config = armed_config(FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0))
    result, tracer = run_jit(config)
    assert produced(result) == ORACLE_FILES
    assert result.metrics.degraded_runs > 0
    assert any(span.name == "resilience:degrade" for span in tracer.spans)


def test_jit_regions_degrade_past_spill_enospc(tmp_path):
    from repro.api.config import StreamingConfig

    config = armed_config(
        FaultSpec(point=SPILL_WRITE, mode="error", errno_name="ENOSPC", max_fires=0)
    ).replace(
        streaming=StreamingConfig(spill_threshold=1, spill_directory=str(tmp_path))
    )
    result, _ = run_jit(config)
    assert produced(result) == ORACLE_FILES
    assert result.metrics.degraded_runs > 0


def test_jit_no_degrade_is_a_typed_error():
    config = armed_config(
        FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0),
        degrade=False,
        deadline_seconds=60.0,
    )
    with pytest.raises((ExecutionError, OSError)):
        run_jit(config)


def test_shell_regions_are_never_replayed(monkeypatch):
    """The shell backend runs real commands with real side effects, so the
    ladder covers parallel/cluster only: one attempt, the error as it is."""
    from repro.api import run
    from repro.engine.api import ShellBackend

    attempts = []

    def failing(self, graph, environment):
        attempts.append(graph)
        raise ExecutionError("emitted script exited 1")

    monkeypatch.setattr(ShellBackend, "execute", failing)
    with pytest.raises(ExecutionError, match="exited 1"):
        run(
            BENCHMARK.script_for_width(WIDTH),
            config=armed_config(max_retries=2),
            backend="jit",
            inner_backend="shell",
            environment=fresh_environment(),
        )
    assert len(attempts) == 1


@pytest.mark.parametrize("backend", ["parallel", "jit"])
def test_a_run_restores_the_fault_plan_it_found(backend):
    """The daemon nests a job-level plan around the run: the driver arms the
    config's plan for its own duration and puts the outer one back."""
    from repro.api import run

    outer = fault.FaultPlan((FaultSpec(point=SPILL_WRITE, mode="delay"),), seed=7)
    fault.install(outer)
    config = armed_config(FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0))
    result = run(
        BENCHMARK.script_for_width(WIDTH),
        config=config,
        backend=backend,
        environment=fresh_environment(),
    )
    assert produced(result) == ORACLE_FILES
    assert fault.active() is outer


# ---------------------------------------------------------------------------
# service backend
# ---------------------------------------------------------------------------


@pytest.fixture
def service_daemon():
    from repro.service import PashServiceDaemon, ServiceOptions

    daemons = []

    def factory(config):
        daemon = PashServiceDaemon(
            ServiceOptions(listen="127.0.0.1:0", executors=1, config=config)
        )
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.shutdown()


def submit(daemon, backend=None):
    from repro.service import ServiceClient

    dataset = BENCHMARK.correctness_dataset(WIDTH, LINES)
    client = ServiceClient(daemon.endpoint, timeout=60.0)
    return client.submit(
        BENCHMARK.script_for_width(WIDTH),
        files={name: list(lines) for name, lines in dataset.items()},
        backend=backend,
        timeout=60.0,
    )


def test_service_retries_a_transient_executor_fault(service_daemon):
    from repro.resilience.fault import SERVICE_EXECUTOR

    config = armed_config(
        FaultSpec(point=SERVICE_EXECUTOR, mode="error", errno_name="EIO", max_fires=1),
        max_retries=2,
    ).replace(backend="parallel")
    job = submit(service_daemon(config))
    assert job["state"] == "done"
    assert produced(job["files"]) == ORACLE_FILES
    assert job["report"]["metrics"]["runs_retried"] >= 1


def test_service_degrades_a_persistent_executor_fault(service_daemon):
    from repro.resilience.fault import SERVICE_EXECUTOR

    config = armed_config(
        FaultSpec(point=SERVICE_EXECUTOR, mode="error", errno_name="EIO", max_fires=0),
        max_retries=1,
    ).replace(backend="parallel")
    job = submit(service_daemon(config))
    assert job["state"] == "done"
    assert produced(job["files"]) == ORACLE_FILES
    assert job["report"]["metrics"]["degraded_runs"] >= 1


def test_service_degrades_killed_pool_workers(service_daemon):
    """The acceptance cell: worker SIGKILL on the service tier's jit jobs."""
    config = armed_config(
        FaultSpec(point=POOL_WORKER_EXEC, mode="kill", max_fires=0)
    ).replace(backend="jit")
    job = submit(service_daemon(config), backend="jit")
    assert job["state"] == "done"
    assert produced(job["files"]) == ORACLE_FILES
    assert job["report"]["metrics"]["degraded_runs"] >= 1


def test_service_no_degrade_fails_typed_not_hung(service_daemon):
    from repro.resilience.fault import SERVICE_EXECUTOR

    config = armed_config(
        FaultSpec(point=SERVICE_EXECUTOR, mode="error", errno_name="EIO", max_fires=0),
        max_retries=1,
        degrade=False,
        deadline_seconds=60.0,
    ).replace(backend="parallel")
    job = submit(service_daemon(config))
    assert job["state"] == "failed"
    assert "injected fault" in job["error"]


# ---------------------------------------------------------------------------
# cluster backend
# ---------------------------------------------------------------------------


def test_cluster_tolerates_dropped_heartbeats(monkeypatch):
    """A worker that loses a few heartbeat frames keeps its tasks: dropped
    beats stay far under the 10s liveness timeout, and the run's bytes are
    unaffected (the fault plan reaches exec'd workers via PASH_FAULTS)."""
    import json

    plan = {
        "seed": 1,
        "faults": [{"point": CLUSTER_HEARTBEAT, "mode": "drop", "max_fires": 2}],
    }
    monkeypatch.setenv(fault.ENV_FAULTS, json.dumps(plan))
    config = PashConfig.paper_default(WIDTH)
    compiled = Pash(config).compile(BENCHMARK.script_for_width(WIDTH))
    result = compiled.execute(backend="cluster", environment=fresh_environment())
    assert produced(result) == ORACLE_FILES


# ---------------------------------------------------------------------------
# pool self-healing
# ---------------------------------------------------------------------------


def test_ensure_idle_replaces_dead_workers():
    from repro.engine.pool import WorkerPool

    pool = WorkerPool()
    try:
        pool.ensure_idle(2)
        victim_pid = pool.worker_pids()[0]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(
                worker.process.pid == victim_pid and worker.process.is_alive()
                for worker in list(pool._idle)
            ):
                break
            time.sleep(0.05)
        pool.ensure_idle(2)
        assert pool.workers_replaced == 1
        assert pool.stats()["workers_replaced"] == 1
        pids = pool.worker_pids()
        assert len(pids) >= 2
        assert victim_pid not in pids
    finally:
        pool.shutdown()
