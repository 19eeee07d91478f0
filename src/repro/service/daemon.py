"""``pash-serve`` — the long-running multi-tenant service daemon.

One warm process serves many tenants: scripts arrive over a local socket
(length-prefixed JSON frames — see :mod:`repro.service.protocol` for why a
tenant-facing boundary must never unpickle client bytes), pass an
:class:`~repro.service.admission.AdmissionController` (bounded queue,
per-tenant quotas — reject cleanly, never hang), and execute on the shared
session machinery — one persistent :class:`~repro.engine.pool.WorkerPool`
for every parallel region, one :class:`~repro.jit.cache.DiskPlanCache` so a
popular one-liner compiles once per fleet rather than once per submission,
and one :class:`~repro.obs.tracer.Tracer` whose per-job ``service:job``
spans make an 8-tenant burst one coherent timeline.

Isolation model (what *shared* means here):

* **Filesystem** — every job runs against its own
  :class:`~repro.runtime.streams.VirtualFileSystem` built from the files it
  submitted (``allow_real_files`` stays off: tenants cannot read the
  daemon's host filesystem).
* **Uploads** — a file a connection uploaded under its digest stays in that
  connection's :class:`~repro.service.uploads.UploadStore` until the store
  evicts it (least recently used, past ``UploadStore.CAPACITY``; the reply
  that evicts it says so under ``dropped``) or the connection ends, and a
  later job names it by digest on that connection only: no other
  connection, tenant or reconnect can resolve it.
* **Shell state** — every job gets a fresh :class:`~repro.jit.driver.JitDriver`
  (whatever its backend); variables, ``$?``, and cwd never leak between
  tenants.
* **Spill files** — every scheduler or cluster-coordinator run spills
  under a directory of its own (``mkdtemp`` under the configured
  ``spill_directory``), removed after the run, so concurrent jobs sharing
  one ``spill_directory`` cannot collide.
* **Worker processes and compiled plans** — deliberately shared; that is
  the point of the daemon.  The pool's ``run_lock`` serializes scheduler
  runs (bounding process count at the pool's high-water mark) and the plan
  cache is keyed on (fingerprint, bindings, config digest), so sharing is
  correctness-neutral by construction.
"""

from __future__ import annotations

import argparse
import os
import queue
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.annotations.library import standard_library
from repro.api.artifact import execute_script
from repro.api.config import ObsConfig, PashConfig, ResilienceConfig, StreamingConfig
from repro.obs.export import export_chrome_trace
from repro.obs.expose import NULL_EVENTS, EventLog, MetricsServer, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.sampler import TraceSampler
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience import fault as fault_injection
from repro.resilience.supervisor import supervise
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem
from repro.service import protocol, telemetry
from repro.service.admission import AdmissionController, ServiceBusy, ServiceError
from repro.service.jobs import Job, JobState, JobTable
from repro.service.uploads import UploadCounters, UploadStore
from repro.shell.expansion import ExpansionError
from repro.wire import ProtocolError, is_loopback_host, recv_frame, send_frame


def _is_lines(value: Any) -> bool:
    """Whether a client-supplied stream is what a job holds: a list of strings.

    One C-level pass over the types; JSON never yields ``str`` subclasses.
    """
    return isinstance(value, list) and set(map(type, value)) <= {str}


@dataclass
class ServiceOptions:
    """Every knob of one daemon instance."""

    #: ``HOST:PORT`` to listen on (port 0 = ephemeral, for tests).
    listen: str = "127.0.0.1:0"
    #: The protocol has no authentication: any client that can connect can
    #: submit work, so :meth:`PashServiceDaemon.start` refuses a
    #: non-loopback listen address unless this is set (``--allow-remote``).
    allow_remote: bool = False
    #: Executor threads pulling jobs off the run queue.  ``0`` is the
    #: admission-only mode tests use: jobs queue but never start, which
    #: makes queue-full/quota/cancel paths deterministic.
    executors: int = 4
    #: Max jobs in flight (queued + running) across all tenants.
    queue_limit: int = 16
    #: Max jobs in flight per tenant.
    tenant_quota: int = 4
    #: Directory for the persistent plan cache (None = memory-only).
    cache_directory: Optional[str] = None
    #: Server-side ceiling for any blocking wait (submit/result).
    max_wait_seconds: float = 300.0
    #: How long shutdown waits for running jobs before failing them.
    shutdown_grace_seconds: float = 10.0
    #: Compilation/execution defaults; per-job ``config`` overrides merge
    #: on top.  The default backend is ``jit``: every region sized from its
    #: live input (any other name pins that engine at ``width``).
    config: PashConfig = field(default_factory=lambda: PashConfig(backend="jit"))
    #: Chrome-trace destination written at shutdown (enables tracing).
    trace_path: Optional[str] = None
    #: Serve Prometheus text on this port (``--metrics-port``; None = off).
    #: Binds the daemon's listen host, so the same loopback/--allow-remote
    #: trust model applies to the scrape endpoint.
    metrics_port: Optional[int] = None
    #: JSONL telemetry event log (``--events``; None = off).
    events_path: Optional[str] = None


class PashServiceDaemon:
    """The pash-as-a-service daemon (see module docstring)."""

    def __init__(
        self, options: Optional[ServiceOptions] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.options = options or ServiceOptions()
        self.config = self.options.config
        if tracer is None:
            tracing = self.config.tracing or bool(self.options.trace_path)
            retention = self.config.obs.span_retention or None
            tracer = Tracer(max_spans=retention) if tracing else NULL_TRACER
        self.tracer = tracer
        #: Per-job sampling decision: which jobs' spans the tracer records.
        self.sampler = TraceSampler.from_config(self.config.obs)
        #: This daemon's own registry (``--metrics-port`` only gates the HTTP
        #: exposition).  The daemon counts what only it knows — job outcomes
        #: and latency; every other family is a view over the part that keeps
        #: the number (:mod:`repro.service.telemetry`).
        self.metrics = MetricsRegistry()
        self._jobs_completed = self.metrics.counter(
            "pash_jobs_completed_total", "Jobs that finished successfully."
        )
        self._jobs_failed = self.metrics.counter(
            "pash_jobs_failed_total", "Jobs that turned terminal with an error."
        )
        self._jobs_cancelled = self.metrics.counter(
            "pash_jobs_cancelled_total", "Jobs cancelled before completion."
        )
        self._job_seconds = self.metrics.histogram(
            "pash_job_seconds",
            "Per-tenant job wall-clock duration (queue to terminal).",
            labels=("tenant",),
        )
        telemetry.register_views(self.metrics, self)
        self.events = (
            EventLog(self.options.events_path)
            if self.options.events_path
            else NULL_EVENTS
        )
        self.metrics_server: Optional[MetricsServer] = None
        self.admission = AdmissionController(
            queue_limit=self.options.queue_limit,
            tenant_quota=self.options.tenant_quota,
        )
        self.jobs = JobTable()
        #: Upload traffic and what every connection's store holds.
        self.uploads = UploadCounters()
        self.run_queue: "queue.Queue[Job]" = queue.Queue()
        from repro.jit.cache import DiskPlanCache, PlanCache

        if self.options.cache_directory:
            self.plan_cache: PlanCache = DiskPlanCache(self.options.cache_directory)
        else:
            self.plan_cache = PlanCache()
        #: Resolved once; every job's driver reads the same annotations.
        self.library = standard_library()
        self.pool: Optional[Any] = None
        self.address: Optional[Tuple[str, int]] = None
        self.started_at = 0.0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Open client connections and the threads serving them.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._executors: list = []
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The ``HOST:PORT`` clients connect to (known after :meth:`start`)."""
        if self.address is None:
            raise RuntimeError("daemon is not started")
        return f"{self.address[0]}:{self.address[1]}"

    # -- job counters ---------------------------------------------------
    #
    # Backed by the registry's lock-guarded CounterChild: the old plain-int
    # ``+= 1`` from N executor threads could lose increments (the GIL can
    # switch between the load and the store).  The int-returning properties
    # keep every existing reader working unchanged.

    @property
    def jobs_completed(self) -> int:
        return int(self._jobs_completed.value)

    @property
    def jobs_failed(self) -> int:
        return int(self._jobs_failed.value)

    @property
    def jobs_cancelled(self) -> int:
        return int(self._jobs_cancelled.value)

    def start(self) -> None:
        """Bind the socket, warm the pool, and start serving."""
        host, port = protocol.resolve_address(self.options.listen)
        if not is_loopback_host(host) and not self.options.allow_remote:
            raise ServiceError(
                f"refusing to listen on non-loopback address {host!r}: the "
                "service protocol is unauthenticated, so every client that "
                "can connect can submit work; pass --allow-remote "
                "(allow_remote=True) only on a trusted network"
            )
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.25)
        self.address = self._listener.getsockname()[:2]
        self.started_at = time.time()
        if self.options.metrics_port is not None:
            server = MetricsServer(
                self.metrics,
                host=host,
                port=self.options.metrics_port,
                allow_remote=self.options.allow_remote,
            )
            try:
                server.start()
            except (ValueError, OSError) as exc:
                self._listener.close()
                raise ServiceError(f"cannot serve metrics: {exc}") from exc
            self.metrics_server = server
        self.events.emit(
            "daemon-started",
            endpoint=self.endpoint,
            executors=self.options.executors,
            pid=os.getpid(),
        )
        if self.config.jobs != 0:
            from repro.engine.pool import WorkerPool

            self.pool = WorkerPool(size=self.config.jobs)
        for index in range(max(0, self.options.executors)):
            thread = threading.Thread(
                target=self._executor_loop, name=f"pash-serve-exec-{index}", daemon=True
            )
            thread.start()
            self._executors.append(thread)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pash-serve-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (Ctrl-C shuts down)."""
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, cancel queued jobs, drain running ones (bounded).

        Idempotent and bounded: queued jobs are cancelled immediately (their
        waiters wake with a clean terminal state), running jobs get
        ``shutdown_grace_seconds`` to finish and are then *failed* — every
        client blocked on a result gets an answer, never a hang.
        """
        with self._shutdown_lock:
            already = self._shutdown_started
            self._shutdown_started = True
            self._stopping.set()
        if already:
            self._stopped.wait()
            return
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        while True:
            try:
                job = self.run_queue.get_nowait()
            except queue.Empty:
                break
            if job.cancel():
                job.error = "daemon shutting down"
                job.error_code = protocol.ERR_SHUTTING_DOWN
                self._jobs_cancelled.inc()
                self.events.emit(
                    "job-cancelled", job_id=job.job_id, tenant=job.tenant,
                    reason="shutdown",
                )
            self._release(job)
        deadline = time.time() + self.options.shutdown_grace_seconds
        for thread in self._executors:
            thread.join(timeout=max(0.1, deadline - time.time()))
        for job in self.jobs.all():
            if job.state in (JobState.RUNNING, JobState.QUEUED):
                if job.fail(
                    "daemon shut down before the job finished",
                    code=protocol.ERR_SHUTTING_DOWN,
                ):
                    self._jobs_failed.inc()
                self._release(job)
        self._close_connections()
        if self.pool is not None:
            self.pool.shutdown()
        if self.options.trace_path and self.tracer.enabled:
            export_chrome_trace(self.tracer.spans, self.options.trace_path)
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self.events.emit(
            "daemon-stopped",
            jobs_completed=self.jobs_completed,
            jobs_failed=self.jobs_failed,
            jobs_cancelled=self.jobs_cancelled,
        )
        self.events.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Socket plane
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="pash-serve-conn",
                daemon=True,
            )
            with self._connections_lock:
                self._connections[connection] = thread
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Answer requests in order until EOF, an idle timeout, a malformed
        frame (answered ``bad-request``: the framing is lost) or shutdown."""
        shutdown_after = False
        store = UploadStore(self.uploads)
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection.settimeout(protocol.IDLE_TIMEOUT_SECONDS)
            while not self._stopping.is_set():
                try:
                    message = recv_frame(connection)
                except ProtocolError as exc:
                    send_frame(
                        connection,
                        protocol.error_response(protocol.ERR_BAD_REQUEST, str(exc)),
                    )
                    break
                if message is None:
                    break
                response, shutdown_after = self._handle(message, store)
                send_frame(connection, response)
        except (OSError, ProtocolError):
            pass  # the client vanished or idled out; its job (if any) keeps running
        finally:
            with self._connections_lock:
                self._connections.pop(connection, None)
            connection.close()
            store.close()
        if shutdown_after:
            self.shutdown()

    def _close_connections(self) -> None:
        """End every open connection and wait (bounded) for its thread."""
        with self._connections_lock:
            connections = list(self._connections.items())
        for connection, _ in connections:
            try:
                # Wakes a thread blocked reading; its own finally closes the socket.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for _, thread in connections:
            if thread is not threading.current_thread():
                thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def _handle(
        self, message: Dict[str, Any], store: UploadStore
    ) -> Tuple[Dict[str, Any], bool]:
        """Dispatch one request on a connection whose uploads are ``store``;
        returns (response, shutdown-after-reply)."""
        kind = message.get("type")
        try:
            if kind == protocol.MSG_SUBMIT:
                return self._handle_submit(message, store), False
            if kind == protocol.MSG_STATUS:
                return self._job_response(message, wait=False), False
            if kind == protocol.MSG_RESULT:
                return self._job_response(message, wait=True), False
            if kind == protocol.MSG_CANCEL:
                return self._handle_cancel(message), False
            if kind == protocol.MSG_STATS:
                return {"type": protocol.MSG_STATS_REPLY, "stats": self.stats()}, False
            if kind == protocol.MSG_METRICS:
                return {
                    "type": protocol.MSG_METRICS_REPLY,
                    "exposition": prometheus_text(self.metrics),
                    "snapshot": self.metrics.snapshot(),
                }, False
            if kind == protocol.MSG_PING:
                from repro import __version__

                return {
                    "type": protocol.MSG_PONG,
                    "version": __version__,
                    "protocol": protocol.SERVICE_PROTOCOL_VERSION,
                    "pid": os.getpid(),
                }, False
            if kind == protocol.MSG_SHUTDOWN:
                self._stopping.set()  # refuse new work before the reply lands
                return {"type": protocol.MSG_OK}, True
            return (
                protocol.error_response(
                    protocol.ERR_BAD_REQUEST, f"unknown request type {kind!r}"
                ),
                False,
            )
        except ServiceBusy as busy:
            return protocol.error_response(busy.code, str(busy)), False
        except ServiceError as error:
            return protocol.error_response(error.code, str(error)), False
        except Exception as exc:  # noqa: BLE001 - the reply IS the error path
            return (
                protocol.error_response(
                    protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
                False,
            )

    # -- request handlers ----------------------------------------------

    def _handle_submit(self, message: Dict[str, Any], store: UploadStore) -> Dict[str, Any]:
        if self._stopping.is_set():
            raise ServiceError(
                "daemon is shutting down", code=protocol.ERR_SHUTTING_DOWN
            )
        script = message.get("script")
        if not isinstance(script, str) or not script.strip():
            raise ServiceError(
                "submit requires a non-empty 'script' string",
                code=protocol.ERR_BAD_REQUEST,
            )
        tenant = str(message.get("tenant") or "default")
        config = self._job_config(message.get("config"))
        backend = str(message.get("backend") or config.backend)
        # Validate before admission: a malformed request must not claim a
        # quota slot or enqueue a job it then answers bad-request for.
        files = message.get("files") or {}
        stdin = message.get("stdin") or []
        if not isinstance(files, dict) or not all(map(_is_lines, [stdin, *files.values()])):
            raise ServiceError(
                "'files' must map names to lists of strings and 'stdin' be a list of strings",
                code=protocol.ERR_BAD_REQUEST,
            )
        timeout = self._validated_timeout(message.get("timeout"))
        refs = message.get("refs")
        if files and isinstance(refs, dict) and not refs.keys().isdisjoint(files):
            raise ServiceError(
                "a file is both in 'files' and in 'refs'", code=protocol.ERR_BAD_REQUEST
            )
        # The last check before admission, and the first step that changes
        # anything: the store keeps this request's uploads and evicts what no
        # longer fits, which every reply from here on names as ``dropped``.
        named, dropped = store.resolve(refs, message.get("uploads"))
        if files:
            self.uploads.add(
                inline=sum(sum(map(len, lines)) + len(lines) for lines in files.values())
            )
            named.update(files)
        try:
            self.admission.admit(tenant)
        except ServiceBusy as busy:
            self.events.emit("job-rejected", tenant=tenant, reason=busy.code)
            return dict(protocol.error_response(busy.code, str(busy)), dropped=dropped)
        job = self.jobs.create(
            tenant=tenant,
            script=script,
            backend=backend,
            config=config,
            files=named,
            stdin=stdin,
        )
        self.events.emit(
            "job-admitted", job_id=job.job_id, tenant=tenant, backend=backend
        )
        self.run_queue.put(job)
        if message.get("wait", True):
            response = self._wait_for(job, timeout)
        else:
            response = {"type": protocol.MSG_JOB, "job": job.payload(include_output=False)}
        response["dropped"] = dropped
        return response

    def _job_config(self, overrides: Any) -> PashConfig:
        """The daemon's config with a submission's overrides merged on top."""
        if not overrides:
            return self.config
        if not isinstance(overrides, dict):
            raise ServiceError(
                "'config' must be a dict of PashConfig fields",
                code=protocol.ERR_BAD_REQUEST,
            )
        merged = self.config.to_dict()
        merged.update(overrides)
        try:
            return PashConfig.from_dict(merged)
        except (ValueError, TypeError) as exc:
            raise ServiceError(str(exc), code=protocol.ERR_BAD_REQUEST) from exc

    def _find_job(self, message: Dict[str, Any]) -> Job:
        raw = message.get("job_id")
        try:
            job_id = int(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                f"'job_id' must be an integer, got {raw!r}",
                code=protocol.ERR_BAD_REQUEST,
            ) from None
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(
                f"unknown job id {raw!r}", code=protocol.ERR_UNKNOWN_JOB
            )
        return job

    def _job_response(self, message: Dict[str, Any], wait: bool) -> Dict[str, Any]:
        job = self._find_job(message)
        if wait:
            return self._wait_for(job, message.get("timeout"))
        return {"type": protocol.MSG_JOB, "job": job.payload()}

    @staticmethod
    def _validated_timeout(value: Any) -> Optional[float]:
        """A client-supplied ``timeout`` as a float (bad-request otherwise)."""
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ServiceError(
                f"'timeout' must be a number, got {value!r}",
                code=protocol.ERR_BAD_REQUEST,
            ) from None

    def _wait_for(self, job: Job, timeout: Any) -> Dict[str, Any]:
        """Bounded wait for a terminal state; a timeout is a typed error."""
        ceiling = self.options.max_wait_seconds
        timeout = self._validated_timeout(timeout)
        wait_seconds = ceiling if timeout is None else min(timeout, ceiling)
        if job.finished.wait(timeout=max(0.0, wait_seconds)):
            return {"type": protocol.MSG_JOB, "job": job.payload()}
        return protocol.error_response(
            protocol.ERR_TIMEOUT,
            f"job {job.job_id} still {job.state} after {wait_seconds:.1f}s",
            job=job.payload(include_output=False),
        )

    def _handle_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job = self._find_job(message)
        if job.cancel():
            self._jobs_cancelled.inc()
            self.events.emit(
                "job-cancelled", job_id=job.job_id, tenant=job.tenant,
                reason="client",
            )
            self._release(job)
        return {"type": protocol.MSG_JOB, "job": job.payload()}

    # ------------------------------------------------------------------
    # Execution plane
    # ------------------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            try:
                job = self.run_queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            self._run_job(job)

    def _release(self, job: Job) -> None:
        if job.first_release():
            self.admission.release(job.tenant)

    def _run_job(self, job: Job) -> None:
        if not job.try_start():  # cancelled while queued
            self._release(job)
            return
        started = time.perf_counter()
        # The sampler decides per job whether spans are recorded; a skipped
        # job runs against the shared null tracer (one attribute check per
        # would-be span) but still counts in every metric below.
        tracer = (
            self.tracer
            if self.tracer.enabled and self.sampler.should_sample(job.tenant)
            else NULL_TRACER
        )
        status = "completed"
        try:
            with tracer.span(
                "service:job",
                "service",
                job_id=job.job_id,
                tenant=job.tenant,
                backend=job.backend,
            ) as job_span:
                mark = tracer.mark()
                result = self._execute_supervised(job, tracer)
            # The tracer is shared by every executor: slice this job's
            # spans by ancestry, not by position.
            spans = tracer.descendants(job_span.span_id, mark) if tracer.enabled else None
            report = RunReport.from_run(result, spans=spans).to_dict()
            # complete() is False when the job already turned terminal
            # (failed by the shutdown path past its grace period) — terminal
            # states stay terminal and the counters stay consistent.
            if job.complete(
                stdout=result.stdout,
                out_files=result.files,
                report=report,
                elapsed_seconds=time.perf_counter() - started,
            ):
                self._jobs_completed.inc()
                telemetry.fold_job(self.metrics, result.metrics, result.jit)
        except (ExecutionError, ExpansionError, OSError, ValueError, KeyError) as exc:
            # OSError covers the resilience tier's typed failures (injected
            # faults, ResourceExhausted) escaping a no-degrade ladder: the
            # tenant gets a clean execution error, never an internal one.
            status = "failed"
            if job.fail(str(exc) or type(exc).__name__, code=protocol.ERR_EXECUTION):
                self._jobs_failed.inc()
        except Exception as exc:  # noqa: BLE001 - a tenant bug must not kill the daemon
            status = "failed"
            if job.fail(f"{type(exc).__name__}: {exc}", code=protocol.ERR_INTERNAL):
                self._jobs_failed.inc()
        finally:
            elapsed = time.perf_counter() - started
            self._job_seconds.labels(tenant=job.tenant).observe(elapsed)
            self.events.emit(
                "job-finished",
                job_id=job.job_id,
                tenant=job.tenant,
                backend=job.backend,
                status=status,
                elapsed_seconds=round(elapsed, 6),
            )
            self._release(job)

    def _execute_supervised(self, job: Job, tracer: Tracer):
        """Run the job under the config's retry-then-degrade ladder.

        The job-level fault plan installs once around the whole ladder — not
        per attempt — so ``max_fires`` counts injections per job, and a
        retried attempt sees the plan's advanced state (that is what lets
        retry-then-succeed happen at all).
        """
        resilience = job.config.resilience

        def attempt():
            fault_injection.fire(fault_injection.SERVICE_EXECUTOR)
            return self._execute(job, tracer, job.backend)

        if not resilience.active or job.backend == "interpreter":
            return attempt()

        def degrade():
            # Byte-identical to the parallel plan by the paper's correctness
            # contract: still the script driver (control flow needs a
            # shell), every region pinned to the sequential interpreter.
            self.events.emit("job-degraded", job_id=job.job_id, tenant=job.tenant)
            return self._execute(job, tracer, "interpreter")

        plan = resilience.fault_plan()
        previous_plan = fault_injection.active()
        if plan is not None:
            fault_injection.install(plan)
        try:
            return supervise(resilience, tracer, f"job:{job.job_id}", attempt, degrade)
        finally:
            if plan is not None:
                fault_injection.install(previous_plan)

    def _execute(self, job: Job, tracer: Tracer, backend: str):
        """Run the job's script on ``backend``, sharing the daemon's pool and cache.

        Every call gets a *fresh* execution environment, so a partially
        written virtual file from a failed attempt never leaks into the next
        one; the driver reads its own copy of ``job.stdin``.
        """
        environment = ExecutionEnvironment(
            filesystem=VirtualFileSystem(job.files), stdin=job.stdin
        )
        return execute_script(
            job.script,
            job.config,
            backend,
            environment,
            cache=self.plan_cache,
            library=self.library,
            tracer=tracer,
            pool=self.pool,  # the driver takes from it only for pool runs
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    #: Version of the :meth:`stats` payload shape.  2 added ``schema``
    #: itself, an always-present ``pool`` key (None when poolless), and the
    #: ``sampler``/``trace`` sections; 3 the ``uploads`` section.
    STATS_SCHEMA = 3

    def stats(self) -> Dict[str, Any]:
        """The STATS payload: admission, queue, cache, and pool counters."""
        snapshot: Dict[str, Any] = {
            "schema": self.STATS_SCHEMA,
            "endpoint": self.endpoint if self.address else None,
            "uptime_seconds": time.time() - self.started_at if self.started_at else 0.0,
            "executors": len(self._executors),
            "queue_depth": self.run_queue.qsize(),
            "admission": self.admission.to_dict(),
            "jobs": {
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "cancelled": self.jobs_cancelled,
            },
            "plan_cache": dict(
                self.plan_cache.stats.to_dict(), entries=len(self.plan_cache)
            ),
            "pool": self.pool.stats() if self.pool is not None else None,
            "sampler": {
                "ratio": self.sampler.ratio,
                "sampled": self.sampler.sampled,
                "skipped": self.sampler.skipped,
            },
            "trace": {
                "enabled": self.tracer.enabled,
                "spans": len(self.tracer.spans),
                "dropped_spans": self.tracer.dropped_spans,
            },
            "uploads": self.uploads.to_dict(),
        }
        return snapshot


# ---------------------------------------------------------------------------
# The pash-serve entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pash-serve",
        description="Long-running PaSh service daemon: submit scripts with pash-client.",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:7070", help="HOST:PORT to listen on (port 0 = ephemeral)"
    )
    parser.add_argument(
        "--allow-remote",
        action="store_true",
        help="allow a non-loopback --listen address (the protocol is "
        "unauthenticated: anyone who can connect can submit work)",
    )
    parser.add_argument("--executors", type=int, default=4, help="executor threads")
    parser.add_argument(
        "--queue-limit", type=int, default=16, help="max jobs in flight, all tenants"
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=4, help="max jobs in flight per tenant"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent plan-cache directory"
    )
    parser.add_argument("--width", type=int, default=2, help="parallelism width")
    parser.add_argument(
        "--execute",
        default="jit",
        help="default backend for submissions (jit | parallel | interpreter | ...)",
    )
    parser.add_argument(
        "--jit-backend",
        default="auto",
        help="engine behind JIT-compiled regions: 'auto' sizes each region "
        "from its live input and keeps small ones in-process, 'parallel' "
        "always runs --width on the pool",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="pre-warm the worker pool to N processes"
    )
    parser.add_argument("--spill-dir", default=None, help="base spill directory")
    parser.add_argument("--max-wait-seconds", type=float, default=300.0)
    parser.add_argument(
        "--trace", default=None, help="write a Chrome trace of every job at shutdown"
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text on this port (binds the --listen host; "
        "0 = ephemeral)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="FILE.jsonl",
        help="append schema-stable JSONL telemetry events (admissions, "
        "rejections, job outcomes, lifecycle)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATIO",
        help="record spans for this fraction of jobs (default 1.0)",
    )
    parser.add_argument(
        "--sample-tenant",
        action="append",
        default=None,
        metavar="TENANT",
        help="always trace this tenant regardless of --trace-sample "
        "(repeatable)",
    )
    parser.add_argument(
        "--span-retention",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N spans in memory, evicting the oldest "
        "(0 = unbounded)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry a failed job this many times before degrading (arms the "
        "resilience ladder; see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail a job after retries instead of re-running it on the "
        "sequential interpreter",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE.json",
        help="inject a deterministic fault plan into every job (chaos testing)",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    arguments = build_parser().parse_args(argv)
    config = PashConfig.paper_default(
        arguments.width,
        backend=arguments.execute,
        jobs=arguments.jobs,
        jit_inner_backend=arguments.jit_backend,
        tracing=bool(arguments.trace),
        streaming=StreamingConfig(spill_directory=arguments.spill_dir),
        resilience=ResilienceConfig.from_cli_args(arguments),
        obs=ObsConfig.from_cli_args(arguments),
    )
    options = ServiceOptions(
        listen=arguments.listen,
        allow_remote=arguments.allow_remote,
        executors=arguments.executors,
        queue_limit=arguments.queue_limit,
        tenant_quota=arguments.tenant_quota,
        cache_directory=arguments.cache_dir,
        max_wait_seconds=arguments.max_wait_seconds,
        config=config,
        trace_path=arguments.trace,
        metrics_port=arguments.metrics_port,
        events_path=arguments.events,
    )
    daemon = PashServiceDaemon(options)
    try:
        daemon.start()
    except (OSError, ServiceError) as exc:
        print(f"pash-serve: cannot listen on {arguments.listen}: {exc}", file=sys.stderr)
        return 2
    print(
        f"pash-serve: listening on {daemon.endpoint} "
        f"(executors={arguments.executors}, backend={arguments.execute})",
        file=sys.stderr,
        flush=True,
    )
    if daemon.metrics_server is not None:
        print(
            f"pash-serve: metrics on http://{daemon.address[0]}:"
            f"{daemon.metrics_server.port}/metrics",
            file=sys.stderr,
            flush=True,
        )
    daemon.serve_forever()
    print("pash-serve: shut down cleanly", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())
