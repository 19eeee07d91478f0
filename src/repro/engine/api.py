"""The unified execution API: ``repro.engine.run(graph, backend=...)``.

Every way this reproduction can execute a dataflow graph sits behind one
registry:

* ``interpreter`` — the single-threaded in-process oracle
  (:class:`repro.runtime.executor.DFGExecutor`),
* ``parallel`` — the multiprocess scheduler with OS-pipe channels
  (:class:`repro.engine.scheduler.ParallelScheduler`); its data plane
  streams chunk-by-chunk in bounded memory, spilling eager buffers to disk
  past the config's ``streaming.spill_threshold`` (see
  :mod:`repro.engine.channels`),
* ``shell`` — emit the Fig. 3-style script and run it under a real POSIX
  shell, then fold the results back into the virtual filesystem.

The CLI, the evaluation harness, benchmarks, and tests all select backends
through the ``repro.api`` front door (``CompiledScript.execute`` /
``repro.api.run``), which resolves names against this registry — so adding a
backend (e.g. a distributed one) is one ``register_backend`` call.
"""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.config import PashConfig
from repro.backend.shell_emitter import emit_parallel_script
from repro.commands.base import Stream, decode_block
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.engine.metrics import EngineMetrics
from repro.engine.pool import WorkerPool
from repro.engine.scheduler import ParallelScheduler
from repro.obs.tracer import SpanRecord, Tracer
from repro.runtime.executor import (
    DFGExecutor,
    ExecutionEnvironment,
    ExecutionError,
    ExecutionResult,
)
from repro.runtime.streams import read_lines, write_lines


@dataclass
class EngineResult:
    """Outcome of one engine invocation (any backend)."""

    backend: str
    stdout: Stream = field(default_factory=list)
    files: Dict[str, Stream] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    #: Spans recorded during this invocation (empty unless tracing is on).
    spans: List[SpanRecord] = field(default_factory=list)

    def output_of(self, name: str) -> Stream:
        """Stream written to the named output file."""
        return self.files.get(name, [])


class ExecutionBackend:
    """One way of executing a dataflow graph."""

    name = "abstract"

    def execute(self, graph: DataflowGraph, environment: ExecutionEnvironment) -> EngineResult:
        raise NotImplementedError

    def _wrap(self, result: ExecutionResult, elapsed: float, metrics: EngineMetrics) -> EngineResult:
        metrics.backend = self.name
        if metrics.elapsed_seconds == 0.0:
            metrics.elapsed_seconds = elapsed
        return EngineResult(
            backend=self.name,
            stdout=result.stdout,
            files=dict(result.files),
            elapsed_seconds=elapsed,
            metrics=metrics,
        )


class InterpreterBackend(ExecutionBackend):
    """The sequential in-process executor (the correctness oracle)."""

    name = "interpreter"

    def execute(self, graph: DataflowGraph, environment: ExecutionEnvironment) -> EngineResult:
        started = time.perf_counter()
        result = DFGExecutor(environment).execute(graph)
        elapsed = time.perf_counter() - started
        return self._wrap(result, elapsed, EngineMetrics())


class ParallelBackend(ExecutionBackend):
    """The multiprocess scheduler: one (pooled) worker process per node.

    ``config`` is the run's :class:`PashConfig` (``None`` = defaults); its
    ``streaming`` section bounds every stream buffer (excess spills to disk)
    and sets the framing granularity.  ``pool`` pins the
    backend to a specific :class:`~repro.engine.pool.WorkerPool` (a ``with
    Pash(...)`` session passes its private pool here); without one the
    scheduler uses the process-wide shared pool, so process startup is
    amortized across runs either way.  The run's
    :class:`~repro.engine.metrics.EngineMetrics` report the observed
    ``processes_spawned`` / ``processes_reused`` /
    ``peak_buffered_bytes`` / ``total_spilled_bytes``.
    """

    name = "parallel"

    def __init__(
        self,
        config: Optional[PashConfig] = None,
        pool: Optional["WorkerPool"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.pool = pool
        self.tracer = tracer

    def execute(self, graph: DataflowGraph, environment: ExecutionEnvironment) -> EngineResult:
        started = time.perf_counter()
        scheduler = ParallelScheduler(
            environment, self.config, pool=self.pool, tracer=self.tracer
        )
        mark = scheduler.tracer.mark()
        result, metrics = scheduler.execute(graph)
        elapsed = time.perf_counter() - started
        wrapped = self._wrap(result, elapsed, metrics)
        wrapped.spans = scheduler.tracer.since(mark)
        return wrapped


class ShellBackend(ExecutionBackend):
    """Emit the parallel script and run it under a real POSIX shell.

    The environment's virtual files are materialized into a scratch
    directory, the script runs there (``LC_ALL=C`` for stable collation),
    and the graph's output files are read back into the environment, making
    the backend byte-comparable with the in-process ones.
    """

    name = "shell"

    def __init__(self, shell: str = "sh", timeout_seconds: float = 120.0) -> None:
        self.shell = shell
        self.timeout_seconds = timeout_seconds

    def execute(self, graph: DataflowGraph, environment: ExecutionEnvironment) -> EngineResult:
        started = time.perf_counter()
        result = ExecutionResult()
        with tempfile.TemporaryDirectory(prefix="pash_engine_") as scratch:
            self._materialize(graph, environment, scratch)
            # Background jobs get /dev/null as stdin under POSIX sh, so the
            # environment's stdin is passed as a real file instead.
            stdin_path = os.path.join(scratch, "pash_stdin.txt")
            write_lines(stdin_path, environment.stdin)
            script = emit_parallel_script(
                graph, PashConfig(fifo_directory=scratch), stdin_path=stdin_path
            )
            stdout, returncode, stderr = self._run_shell(script, scratch)
            if returncode != 0:
                message = stderr.decode("utf-8", "replace").strip()
                raise ExecutionError(f"emitted script exited {returncode}: {message}")
            result.stdout.extend(decode_block(stdout))
            self._read_back(graph, environment, scratch, result)
        elapsed = time.perf_counter() - started
        return self._wrap(result, elapsed, EngineMetrics())

    def _run_shell(self, script: str, scratch: str):
        """Run the emitted script in its own process group with a real timeout.

        The script launches every node as a background job; on a wedge those
        grandchildren keep the captured stdout pipe open, so killing only the
        shell would leave ``communicate`` blocked forever.  A new session +
        ``killpg`` takes the whole graph down, and the timeout surfaces as
        :class:`ExecutionError` like every other backend failure.
        """
        process = subprocess.Popen(
            [self.shell, "-c", script],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=scratch,
            env=dict(os.environ, LC_ALL="C"),
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=self.timeout_seconds)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - race with exit
                pass
            process.communicate()
            raise ExecutionError(
                f"emitted script timed out after {self.timeout_seconds}s"
            ) from None
        return stdout, process.returncode, stderr

    @staticmethod
    def _path(scratch: str, name: str) -> str:
        return name if os.path.isabs(name) else os.path.join(scratch, name)

    def _materialize(
        self, graph: DataflowGraph, environment: ExecutionEnvironment, scratch: str
    ) -> None:
        """Write the script's input files into the scratch directory.

        Covers every in-memory virtual file plus every FILE edge the graph
        reads (those may resolve through the VFS's real-filesystem fallback).
        A missing input raises here: the emitted script would otherwise hang
        — its producer dies before opening its output FIFO and the consumer
        blocks in open(2) forever.
        """
        in_memory = set(environment.filesystem.names())
        for edge in graph.input_edges():
            if edge.kind is EdgeKind.FILE and edge.name and os.path.isabs(edge.name):
                # Absolute inputs are read from the real filesystem by the
                # script itself; an in-memory entry under that name cannot be
                # materialized without clobbering the user's file.
                if edge.name in in_memory:
                    raise ExecutionError(
                        f"cannot materialize in-memory virtual file {edge.name!r} "
                        "for the shell backend: its absolute path would "
                        "overwrite a real file"
                    )
                if not os.path.exists(edge.name):
                    # Missing inputs must fail here, not hang the script.
                    raise ExecutionError(f"input file {edge.name!r} does not exist")
        # Only relative names are written (into the scratch dir): absolute
        # VFS entries must never escape onto the real filesystem.
        names = {name for name in in_memory if not os.path.isabs(name)}
        for edge in graph.input_edges():
            if edge.kind is EdgeKind.FILE and edge.name and not os.path.isabs(edge.name):
                names.add(edge.name)
        # Append (`>>`) targets need their prior content in the scratch dir
        # too — the script must extend it, never start from an empty file.
        for edge in graph.output_edges():
            if edge.kind is not EdgeKind.FILE or not edge.name:
                continue
            if os.path.isabs(edge.name):
                # The emitted script would redirect straight to the real
                # path, escaping the hermetic scratch sandbox the in-memory
                # backends honour.
                raise ExecutionError(
                    f"shell backend refuses absolute output path {edge.name!r}: "
                    "it would write outside the scratch directory (use a "
                    "relative path or the interpreter/parallel backend)"
                )
            if edge.append and environment.filesystem.exists(edge.name):
                names.add(edge.name)
        for name in sorted(names):
            try:
                lines = environment.filesystem.read(name)
            except FileNotFoundError as exc:
                raise ExecutionError(str(exc)) from exc
            path = self._path(scratch, name)
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            write_lines(path, lines)

    def _read_back(
        self,
        graph: DataflowGraph,
        environment: ExecutionEnvironment,
        scratch: str,
        result: ExecutionResult,
    ) -> None:
        for edge in graph.output_edges():
            if edge.kind is not EdgeKind.FILE or not edge.name:
                continue
            path = self._path(scratch, edge.name)
            try:
                lines = read_lines(path)
            except FileNotFoundError:
                lines = []
            # The script itself applied any `>>` append against the
            # materialized content, so the file now holds the final stream.
            environment.filesystem.write(edge.name, lines)
            result.files[edge.name] = lines


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

BackendFactory = Callable[..., ExecutionBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend under ``name``."""
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_BACKENDS)


def create_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the named backend with backend-specific options."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory(**options)


def _cluster_backend_factory(**options) -> ExecutionBackend:
    """Deferred factory: the cluster package imports this module, not vice versa."""
    from repro.cluster.coordinator import ClusterBackend

    return ClusterBackend(**options)


register_backend("interpreter", InterpreterBackend)
register_backend("parallel", ParallelBackend)
register_backend("shell", ShellBackend)
register_backend("cluster", _cluster_backend_factory)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(
    graph: DataflowGraph,
    backend: str = "interpreter",
    environment: Optional[ExecutionEnvironment] = None,
    **options,
) -> EngineResult:
    """Execute one dataflow graph on the named backend.

    ``options`` are forwarded to the backend constructor (e.g.
    ``config=PashConfig(use_host_commands=True)`` for the parallel backend).
    The environment's filesystem is updated with whatever the graph writes,
    so successive runs can share state exactly like the executor.
    """
    environment = environment or ExecutionEnvironment()
    return create_backend(backend, **options).execute(graph, environment)
