"""The parallel execution engine: real processes, real pipes, one API.

This package is the runtime half of the paper's promise — after the compiler
has rewritten a script into a wide dataflow graph, something has to *run*
that graph with genuine OS-level concurrency.  The engine provides:

* :mod:`repro.engine.channels` — OS-pipe streams with chunked framing,
  kernel backpressure, and eager-relay pumps,
* :mod:`repro.engine.pool` — the persistent worker pool: processes created
  once per session, fed plans (and file descriptors, via ``SCM_RIGHTS``)
  across runs,
* :mod:`repro.engine.scheduler` — one pooled worker per DFG node, wired
  with channels, with identity relays elided and pumps only on fan-in,
* :mod:`repro.engine.workers` — the worker bodies (Python command
  implementations or real host binaries),
* :mod:`repro.engine.metrics` — measured per-node wall time, bytes moved,
  and worker utilization,
* :mod:`repro.engine.api` — the backend registry behind
  ``repro.engine.run(graph, backend="interpreter"|"parallel"|"shell")``.
"""

from repro.engine.api import (
    EngineResult,
    ExecutionBackend,
    InterpreterBackend,
    ParallelBackend,
    ShellBackend,
    available_backends,
    create_backend,
    register_backend,
    run,
)
from repro.engine.channels import (
    DEFAULT_CHUNK_SIZE,
    Channel,
    ChannelError,
    ChannelReader,
    ChannelWriter,
    EagerPump,
)
from repro.engine.metrics import EngineMetrics, NodeMetrics
from repro.engine.pool import WorkerPool, shared_pool
from repro.engine.scheduler import ParallelScheduler, execute_graph_parallel

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Channel",
    "ChannelError",
    "ChannelReader",
    "ChannelWriter",
    "EagerPump",
    "EngineMetrics",
    "EngineResult",
    "ExecutionBackend",
    "InterpreterBackend",
    "NodeMetrics",
    "ParallelBackend",
    "ParallelScheduler",
    "ShellBackend",
    "WorkerPool",
    "shared_pool",
    "available_backends",
    "create_backend",
    "execute_graph_parallel",
    "register_backend",
    "run",
]
