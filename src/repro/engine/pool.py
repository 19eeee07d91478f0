"""Persistent worker pool: amortize process startup across engine runs.

The PR-1 scheduler forked one fresh process per DFG node per run, so a batch
of short pipelines — the Table-2/unix50 shape — was dominated by ``fork`` +
interpreter-duplication cost rather than by data movement.  This module keeps
a pool of long-lived worker processes (the PaPy architecture: workers are
created once and receive *tasks*, not lifetimes) that the scheduler feeds
:class:`~repro.engine.workers.WorkerPlan`\\ s over per-worker duplex pipes.

Channel file descriptors cannot travel through a queue as plain integers, so
each dispatch sends the plan first (fds replaced by a placeholder) and then
passes the real descriptors over the same socket with ``SCM_RIGHTS``
(:func:`multiprocessing.reduction.send_handle`).  This works under every
start method — which is what makes the engine function on spawn-only
platforms, where fd inheritance by fork never existed: the worker re-creates
the standard command registry in the child (plans carry ``registry=None``
for the standard registry) and receives everything else explicitly.

Lifecycle:

* a pool grows lazily — a graph with more nodes than idle workers spawns the
  difference, because every node of a graph must run *concurrently* (a node
  queued behind a busy worker could deadlock its producers);
* after a run the workers return to the idle set and are reused by the next
  run (``EngineMetrics.processes_reused`` counts these); idle workers beyond
  ``max_idle`` are shut down;
* :func:`shared_pool` returns the process-wide default pool (one per start
  method), shut down at interpreter exit; sessions that want deterministic
  teardown create a private :class:`WorkerPool` (``with Pash(...) as pash:``
  does) and call :meth:`WorkerPool.shutdown` themselves.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import warnings
from dataclasses import replace
from multiprocessing import reduction
from typing import Dict, List, Optional

from repro.engine.workers import WorkerPlan, execute_plan

#: Sentinel fd value marking a port whose real descriptor follows over the
#: dispatch socket via SCM_RIGHTS.
FD_PENDING = -2

#: Idle workers kept alive per pool after a run (excess are shut down).
DEFAULT_MAX_IDLE = 32

_warned_methods = set()


def resolve_context(preferred: str):
    """A multiprocessing context for ``preferred``, falling back gracefully.

    On platforms without the preferred start method (e.g. ``fork`` on a
    spawn-only build) the default context is used instead, with a single
    warning per process — the pool's explicit fd passing and registry
    re-registration make the engine correct under any method.
    """
    try:
        return multiprocessing.get_context(preferred)
    except ValueError:
        if preferred not in _warned_methods:
            _warned_methods.add(preferred)
            fallback = multiprocessing.get_start_method(allow_none=False)
            warnings.warn(
                f"multiprocessing start method {preferred!r} is unavailable on "
                f"this platform; falling back to {fallback!r} (the worker pool "
                "passes descriptors explicitly, so execution stays correct)",
                RuntimeWarning,
                stacklevel=2,
            )
        return multiprocessing.get_context()


def _pool_worker_main(connection, report_queue) -> None:
    """Body of one persistent worker: receive plans, execute, repeat.

    Each task is a :class:`WorkerPlan` whose channel ports carry
    :data:`FD_PENDING`; the real descriptors arrive next over the same
    socket, in port order (inputs, then outputs).  ``None`` is the shutdown
    sentinel.  The loop never dies on a task failure —
    :func:`~repro.engine.workers.execute_plan` converts every outcome into a
    report — so one worker serves arbitrarily many runs.
    """
    while True:
        try:
            plan = connection.recv()
        except (EOFError, OSError):
            break
        if plan is None:
            break
        try:
            for port in list(plan.inputs) + list(plan.outputs):
                if port.fd == FD_PENDING:
                    port.fd = reduction.recv_handle(connection)
        except (EOFError, OSError):  # pragma: no cover - dispatcher died mid-task
            break
        execute_plan(plan, report_queue)
    try:
        connection.close()
    except OSError:  # pragma: no cover - defensive
        pass


class PoolWorker:
    """Parent-side handle of one persistent worker process."""

    def __init__(self, context, report_queue) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.connection = parent_conn
        self.process = context.Process(
            target=_pool_worker_main,
            args=(child_conn, report_queue),
            name="pash-pool-worker",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.busy = False

    @property
    def pid(self) -> int:
        return self.process.pid or -1

    def send_plan(self, plan: WorkerPlan) -> None:
        """Ship one task: pickled plan first, then its fds via SCM_RIGHTS."""
        payload = replace(
            plan,
            inputs=[
                replace(port, fd=FD_PENDING if port.fd is not None else None)
                for port in plan.inputs
            ],
            outputs=[
                replace(port, fd=FD_PENDING if port.fd is not None else None)
                for port in plan.outputs
            ],
            close_fds=[],  # pool workers only ever hold their own descriptors
        )
        self.connection.send(payload)
        for port in list(plan.inputs) + list(plan.outputs):
            if port.fd is not None:
                reduction.send_handle(self.connection, port.fd, self.process.pid)

    def stop(self, timeout: float = 1.0) -> None:
        """Shut the worker down (sentinel first, terminate as a last resort)."""
        try:
            self.connection.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=timeout)
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def kill(self) -> None:
        """Terminate without ceremony (failure paths: the worker may be wedged)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - defensive
            pass


class WorkerPool:
    """A growable set of persistent worker processes sharing one report queue."""

    def __init__(
        self,
        start_method: str = "fork",
        size: Optional[int] = None,
        max_idle: int = DEFAULT_MAX_IDLE,
    ) -> None:
        self.context = resolve_context(start_method)
        self.report_queue = self.context.Queue()
        #: Serializes whole scheduler runs on this pool: all of a run's
        #: reports travel through the one shared queue, so two concurrent
        #: runs would steal each other's.  Threads wanting truly concurrent
        #: parallel-backend runs should use one pool each (e.g. one
        #: ``with Pash(...)`` session per thread).
        self.run_lock = threading.Lock()
        self.max_idle = max(0, max_idle)
        self._idle: List[PoolWorker] = []
        self._busy: Dict[int, PoolWorker] = {}  # id(worker) -> worker
        self._closed = False
        #: Lifetime counters (metrics pull per-run deltas from these).
        self.processes_spawned = 0
        self.tasks_dispatched = 0
        self.tasks_reused = 0
        self.workers_replaced = 0
        atexit.register(self.shutdown)
        if size:
            self.prewarm(size)

    # ------------------------------------------------------------------

    @property
    def start_method(self) -> str:
        return self.context.get_start_method()

    @property
    def worker_count(self) -> int:
        return len(self._idle) + len(self._busy)

    def worker_pids(self) -> List[int]:
        """Pids of every live pool worker (idle and busy), sorted.

        Observability hook: worker spans and ``NodeMetrics.pid`` can be
        checked against this set to prove a node ran on a pooled process
        rather than a dedicated fork.
        """
        workers = list(self._idle) + list(self._busy.values())
        return sorted(worker.pid for worker in workers if worker.pid > 0)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current occupancy (the daemon's STATS view)."""
        return {
            "workers": self.worker_count,
            "idle": len(self._idle),
            "busy": len(self._busy),
            "processes_spawned": self.processes_spawned,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_reused": self.tasks_reused,
            "workers_replaced": self.workers_replaced,
        }

    def prewarm(self, count: int) -> None:
        """Ensure at least ``count`` workers exist (spawning the difference)."""
        if self._closed:
            raise RuntimeError("cannot prewarm a closed worker pool")
        while self.worker_count < count:
            self._idle.append(self._spawn())

    def ensure_idle(self, count: int) -> None:
        """Ensure at least ``count`` *idle* workers are ready to dispatch to.

        The scheduler calls this before opening a run's channels: under the
        ``fork`` start method a worker spawned *during* a run would inherit
        the run's pipe descriptors and hold their write ends open forever,
        so every worker a run may need must exist before its pipes do.

        Self-healing: idle workers that died while parked (OOM-killed,
        crashed mid-shutdown, SIGKILLed by a chaos test) are detected and
        replaced here instead of being handed out as corpses — dispatching
        to one would only surface later as a broken pipe or a lost report.
        """
        if self._closed:
            raise RuntimeError("cannot grow a closed worker pool")
        dead = [worker for worker in self._idle if not worker.process.is_alive()]
        for worker in dead:
            self._idle.remove(worker)
            worker.kill()
            self.workers_replaced += 1
        while len(self._idle) < count:
            self._idle.append(self._spawn())

    def _spawn(self) -> PoolWorker:
        worker = PoolWorker(self.context, self.report_queue)
        self.processes_spawned += 1
        return worker

    # ------------------------------------------------------------------

    def dispatch(self, plan: WorkerPlan) -> Optional[PoolWorker]:
        """Hand ``plan`` to an idle worker (never spawning one mid-run).

        Returns the worker now executing the plan, or ``None`` when the plan
        cannot travel to a persistent worker — no idle worker left, a broken
        handshake, or an unpicklable custom command registry.  The caller
        then falls back to a dedicated fork, which inherits registry and
        descriptors by memory and closes the ones it does not own; spawning
        a *pool* worker here instead would leak the run's pipe fds into it
        (see :meth:`ensure_idle`).
        """
        if self._closed:
            raise RuntimeError("cannot dispatch on a closed worker pool")
        if not self._idle:
            return None
        worker = self._idle.pop()
        try:
            worker.send_plan(plan)
        except (pickle.PicklingError, AttributeError, TypeError):
            # Nothing was written (pickling happens before the send); the
            # worker is still clean and reusable.
            self._idle.append(worker)
            return None
        except (BrokenPipeError, OSError):
            # The worker died, or the socket broke mid-handshake leaving it
            # in an unknown protocol state: discard it.
            worker.kill()
            return None
        worker.busy = True
        self._busy[id(worker)] = worker
        self.tasks_dispatched += 1
        self.tasks_reused += 1
        return worker

    def release(self, worker: PoolWorker) -> None:
        """Return a worker whose report arrived to the idle set (idempotent).

        Re-releasing is a no-op: putting the same worker on the idle list
        twice would hand it two nodes of one graph, serializing them on one
        process — a deadlock when the first blocks on the second's stream.
        """
        if not worker.busy:
            return
        worker.busy = False
        self._busy.pop(id(worker), None)
        if self._closed or not worker.process.is_alive():
            worker.kill()
            return
        if len(self._idle) >= self.max_idle:
            worker.stop()
            return
        self._idle.append(worker)

    def discard(self, worker: PoolWorker) -> None:
        """Drop a worker that failed mid-run (wedged, killed, or suspect)."""
        worker.busy = False
        self._busy.pop(id(worker), None)
        self._idle = [idle for idle in self._idle if idle is not worker]
        worker.kill()

    def drain_stale_reports(self) -> None:
        """Throw away reports queued by a run that already gave up."""
        import queue as queue_module

        while True:
            try:
                self.report_queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker (idempotent; registered with ``atexit``)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._idle:
            worker.stop()
        self._idle.clear()
        for worker in list(self._busy.values()):
            worker.kill()
        self._busy.clear()

    @property
    def closed(self) -> bool:
        return self._closed


# ---------------------------------------------------------------------------
# The process-wide default pool (one per start method)
# ---------------------------------------------------------------------------

_shared_pools: Dict[str, WorkerPool] = {}


def shared_pool(start_method: str = "fork") -> WorkerPool:
    """The process-wide pool for ``start_method``, created on first use.

    A pool forked in a parent is useless in a forked child (its workers
    belong to the parent), so the cache is keyed on the owning pid as well
    — a child process transparently gets a fresh pool.
    """
    resolved = resolve_context(start_method).get_start_method()
    key = f"{resolved}:{os.getpid()}"
    pool = _shared_pools.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(start_method=resolved)
        _shared_pools[key] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Close every shared pool (used by tests; atexit covers normal exit)."""
    for pool in _shared_pools.values():
        pool.shutdown()
    _shared_pools.clear()
