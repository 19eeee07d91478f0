"""The cluster coordinator: shard a dataflow graph across socket workers.

Sharding policy (the location-independence argument, §4.2 of the paper):

* **remote-eligible** — nodes that stream statelessly
  (:func:`repro.runtime.executor.node_streams_statelessly`: stateless
  commands with one data input) and fused chains whose members are all
  data-parallelizable (``tr | sort``).  These are exactly the copies the
  parallelize pass fans out, they are pure functions of their one input,
  and their evaluation is byte-identical anywhere — so they shard across
  workers.
* **coordinator-local** — everything else: splits, concatenations,
  aggregators, relays, lone sort-likes, and any node when the environment
  carries a custom command registry (a worker runs the standard one).
  Stateful nodes need the whole stream and sit at fan-in points whose
  inputs already live here, so keeping them local avoids a round trip.

Execution materializes every edge in a coordinator-side :class:`EdgeStore`
as a :class:`~repro.engine.channels.StoredStream` (bytes, or past the spill
threshold a file) and walks the graph as a ready-set task queue: local nodes
run inline through the engine's node runner,
:func:`repro.engine.workers.run_node`, over those stored streams — the same
block kernels and counters as a pool worker — and a remote-eligible node
goes to an idle worker in its JSON form, its input streams as chunk frames.
Nothing is decoded between the seed and the delivery.  Because
a task's inputs are fully materialized *before* dispatch, tasks are
idempotent: when a worker dies (socket EOF or heartbeat timeout) its
in-flight task is requeued to another worker and produces the same bytes.
Output commit is at-most-once — a task's streams enter the store exactly
once, on the first RESULT — so a requeue can never duplicate data.

Failure semantics: a worker that *reports* an execution error fails the run
cleanly (:class:`~repro.runtime.executor.ExecutionError`, surfaced like any
backend failure); a worker that *dies* triggers requeue; losing every worker
with remote tasks still pending fails cleanly; a peer whose first frame is
not a JSON REGISTER of this version is closed; and the whole run is bounded
by ``report_timeout_seconds`` — no outcome hangs.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.protocol import (
    MSG_CHUNK,
    MSG_EDGE_END,
    MSG_HEARTBEAT,
    MSG_REGISTER,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    MessageSocket,
    send_edge_stream,
)
from repro.api.config import ClusterOptions, PashConfig, StreamingConfig
from repro.commands.registry import standard_registry
from repro.dfg.graph import DataflowGraph
from repro.dfg.json_form import node_to_json
from repro.dfg.nodes import DFGNode, FusedStage
from repro.engine.api import EngineResult, ExecutionBackend
from repro.engine.channels import SpillBuffer, StoredStream
from repro.engine.metrics import EngineMetrics, NodeMetrics
from repro.engine.workers import InputPort, OutputPort, WorkerPlan, run_node
from repro.obs.tracer import NULL_TRACER, SpanRecord, Tracer
from repro.runtime.executor import (
    ExecutionEnvironment,
    ExecutionError,
    ExecutionResult,
    deliver_outputs,
    node_streams_statelessly,
    resolve_graph_input,
)
from repro.wire import ProtocolError, parse_address, recv_frame

_worker_ids = itertools.count(1)


def remote_eligible(node: DFGNode) -> bool:
    """Whether a node may execute on a remote worker (the sharding policy).

    The engine's statelessness gate: a node that evaluates one line batch at
    a time with no cross-batch state produces identical bytes on any host,
    so shipping it is safe.  A fused stage is asked about its members: one
    data input and every member a command of class S or P, pure, so the
    same holds for the whole chain.  Everything else (splits, cats,
    aggregators, relays, lone sort-likes, multi-input commands) stays on
    the coordinator.
    """
    if isinstance(node, FusedStage):
        return len(node.inputs) == 1 and node.parallelizability().is_data_parallelizable
    return node_streams_statelessly(node)


# ---------------------------------------------------------------------------
# Edge storage
# ---------------------------------------------------------------------------


class EdgeStore:
    """Every materialized edge of one graph run, as stored streams.

    An edge larger than ``spill_threshold`` bytes lives in a file of a
    run-scoped directory that is removed unconditionally when the run ends.
    An edge enters the store whole or not at all: a remote task's streams
    accumulate in a :meth:`buffer` each and are :meth:`put` on the
    first RESULT, or abandoned with the worker that was sending them.
    """

    def __init__(self, streaming: StreamingConfig = StreamingConfig()) -> None:
        self.streaming = streaming
        if streaming.spill_directory:
            os.makedirs(streaming.spill_directory, exist_ok=True)
        self.directory = tempfile.mkdtemp(
            prefix="pash-cluster-run-", dir=streaming.spill_directory
        )
        self._streams: Dict[int, StoredStream] = {}

    def has(self, edge_id: int) -> bool:
        return edge_id in self._streams

    def buffer(self) -> SpillBuffer:
        """A buffer for one edge still streaming in (spills into the run's directory)."""
        return SpillBuffer(self.streaming.spill_threshold, self.directory)

    def put(self, edge_id: int, stream: StoredStream) -> None:
        self._streams[edge_id] = stream

    def put_lines(self, edge_id: int, lines: List[str]) -> None:
        buffer = self.buffer()
        buffer.append_lines(lines)
        self.put(edge_id, buffer.store())

    def get(self, edge_id: int) -> StoredStream:
        return self._streams[edge_id]

    def lines(self, edge_id: int) -> List[str]:
        return self._streams[edge_id].lines(self.streaming.spill_threshold)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Worker handles
# ---------------------------------------------------------------------------


@dataclass
class ClusterWorkerHandle:
    """Coordinator-side state for one registered worker connection."""

    worker_id: int
    channel: MessageSocket
    last_seen: float = field(default_factory=time.monotonic)
    alive: bool = True
    #: node_id of the task currently dispatched to this worker, if any.
    task: Optional[int] = None


class _RemoteTask:
    """One dispatched task: its node, owner, and uncommitted output buffers."""

    def __init__(self, node: DFGNode, handle: ClusterWorkerHandle, sinks: Dict[int, SpillBuffer]):
        self.node = node
        self.handle = handle
        self.sinks = sinks

    def abandon(self) -> None:
        for sink in self.sinks.values():
            sink.abandon()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class ClusterCoordinator:
    """Owns the worker fleet and executes graphs against it.

    ``config`` is the run's :class:`PashConfig` (``None`` = defaults), read
    as the parallel scheduler reads it: deadline, streaming (frame size,
    spill threshold and directory), host commands, fault plan.  ``options``
    is the fleet and defaults to ``config.cluster``.
    """

    def __init__(
        self,
        options: Optional[ClusterOptions] = None,
        tracer: Optional[Tracer] = None,
        config: Optional[PashConfig] = None,
    ) -> None:
        self.config = PashConfig.coerce(config)
        self.options = options or self.config.cluster
        self.tracer = tracer or NULL_TRACER
        #: Shipped with every task message as ``to_dict()`` (chaos testing;
        #: None = no injection).  Each worker arms its own pristine copy.
        faults = self.config.resilience.fault_plan()
        self._faults = faults.to_dict() if faults is not None else None
        self.workers: List[ClusterWorkerHandle] = []
        self.processes: List[subprocess.Popen] = []
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._inbox: "queue_module.Queue" = queue_module.Queue()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def spawned(self) -> int:
        """Localhost worker processes this coordinator created."""
        return len(self.processes)

    def start(self) -> None:
        """Listen, (maybe) spawn localhost workers, and wait for registration."""
        if self._started:
            return
        if self.options.connect is not None:
            try:
                host, port = parse_address(self.options.connect)
            except ValueError as exc:
                raise ExecutionError(str(exc)) from exc
        else:
            host, port = "127.0.0.1", 0
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise ExecutionError(f"cluster coordinator cannot listen on {host}:{port}: {exc}")
        self.address = self._listener.getsockname()[:2]
        self._listener.settimeout(0.25)
        expected = max(1, self.options.workers)
        if self.options.connect is None:
            self._spawn_local_workers(expected)
        deadline = time.monotonic() + self.options.register_timeout_seconds
        while len(self.workers) < expected:
            dead = [p for p in self.processes if p.poll() is not None]
            if dead:
                self.shutdown()
                raise ExecutionError(
                    f"local pash-worker exited with code {dead[0].returncode} "
                    "before registering"
                )
            if time.monotonic() > deadline:
                registered = len(self.workers)
                self.shutdown()
                raise ExecutionError(
                    f"cluster startup timed out: {registered}/{expected} worker(s) "
                    f"registered within {self.options.register_timeout_seconds}s"
                )
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            self._register(sock)
        self._started = True

    def _spawn_local_workers(self, count: int) -> None:
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        host, port = self.address
        command = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--connect",
            f"{host}:{port}",
            "--retry-seconds",
            "30",
        ]
        for _ in range(count):
            self.processes.append(
                subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL)
            )

    def _register(self, sock: socket.socket) -> None:
        sock.settimeout(10.0)
        try:
            message = recv_frame(sock)
        except (ProtocolError, OSError):
            sock.close()
            return
        if (
            not message
            or message.get("type") != MSG_REGISTER
            or message.get("version") != PROTOCOL_VERSION
        ):
            sock.close()
            return
        sock.settimeout(None)
        handle = ClusterWorkerHandle(
            worker_id=next(_worker_ids),
            channel=MessageSocket(sock),
        )
        try:
            handle.channel.send(
                {"type": MSG_WELCOME, "heartbeat_interval": self.options.heartbeat_interval}
            )
        except OSError:
            handle.channel.close()
            return
        receiver = threading.Thread(
            target=self._receive_loop, args=(handle,), daemon=True,
            name=f"pash-cluster-recv-{handle.worker_id}",
        )
        receiver.start()
        self.workers.append(handle)

    def _receive_loop(self, handle: ClusterWorkerHandle) -> None:
        try:
            while True:
                message = handle.channel.recv()
                if message is None:
                    break
                self._inbox.put((handle, message))
        except (OSError, ProtocolError):
            pass
        self._inbox.put((handle, None))

    def shutdown(self) -> None:
        """Stop every worker and reap locally-spawned processes."""
        for handle in self.workers:
            if handle.alive:
                try:
                    handle.channel.send({"type": MSG_SHUTDOWN})
                except OSError:
                    pass
            handle.alive = False
            handle.channel.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for process in self.processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._started = False

    # -- execution -----------------------------------------------------------

    def execute(
        self, graph: DataflowGraph, environment: Optional[ExecutionEnvironment] = None
    ) -> Tuple[ExecutionResult, EngineMetrics]:
        """Run one graph across the fleet; mirrors the scheduler's contract."""
        environment = environment or ExecutionEnvironment()
        graph.validate()
        started = time.perf_counter()
        metrics = EngineMetrics(backend="cluster")
        result = ExecutionResult()
        if not graph.nodes:
            deliver_outputs(graph, {}, environment, result)
            metrics.elapsed_seconds = time.perf_counter() - started
            return result, metrics
        if not self._started:
            self.start()
        metrics.cluster_workers = sum(1 for handle in self.workers if handle.alive)
        run = _GraphRun(self, graph, environment, metrics)
        try:
            with self.tracer.span(
                "engine:run",
                "scheduler",
                nodes=len(graph.nodes),
                cluster_workers=metrics.cluster_workers,
            ):
                # Captured inside engine:run so remote worker spans (shipped
                # home through RESULT reports) parent under it, like the pool.
                run.run(self.tracer.current_id())
            # The one decode of the run: graph outputs, for deliver_outputs.
            values = {
                edge.edge_id: run.store.lines(edge.edge_id)
                for edge in graph.output_edges()
                if run.store.has(edge.edge_id)
            }
            deliver_outputs(graph, values, environment, result)
            result.edge_values.update(values)
        finally:
            run.close()
        metrics.nodes.sort(key=lambda node: node.node_id)
        metrics.elapsed_seconds = time.perf_counter() - started
        return result, metrics



class _GraphRun:
    """All per-graph scheduling state: ready queues, in-flight tasks, store."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        graph: DataflowGraph,
        environment: ExecutionEnvironment,
        metrics: EngineMetrics,
    ) -> None:
        self.coordinator = coordinator
        self.options = coordinator.options
        self.config = coordinator.config
        self.tracer = coordinator.tracer
        self.graph = graph
        self.environment = environment
        self.metrics = metrics
        self.store = EdgeStore(self.config.streaming)
        #: A worker runs the standard registry; a custom one keeps the run
        #: coordinator-local (still correct, not wide).
        self.remote_ok = environment.registry is standard_registry()
        self.ready_local: Deque[int] = deque()
        self.ready_remote: Deque[int] = deque()
        self.inflight: Dict[int, _RemoteTask] = {}
        self.done: Set[int] = set()
        self.waiting: Dict[int, Set[int]] = {}
        self.consumers: Dict[int, List[int]] = {}

    # -- setup ---------------------------------------------------------------

    def _seed(self) -> None:
        for edge in self.graph.input_edges():
            self.store.put_lines(
                edge.edge_id, resolve_graph_input(edge, self.environment)
            )
        for node_id, node in self.graph.nodes.items():
            self.waiting[node_id] = {
                edge_id for edge_id in node.inputs if not self.store.has(edge_id)
            }
            for edge_id in node.inputs:
                self.consumers.setdefault(edge_id, []).append(node_id)
        for node in self.graph.topological_order():
            if not self.waiting[node.node_id]:
                self._enqueue(node.node_id)

    def _enqueue(self, node_id: int) -> None:
        node = self.graph.node(node_id)
        if self.remote_ok and remote_eligible(node):
            self.ready_remote.append(node_id)
        else:
            self.ready_local.append(node_id)

    # -- main loop -----------------------------------------------------------

    def run(self, trace_parent: Optional[str]) -> None:
        self._seed()
        deadline = time.monotonic() + self.config.report_timeout_seconds
        total = len(self.graph.nodes)
        while len(self.done) < total:
            while self.ready_local:
                self._run_local(self.ready_local.popleft())
            while self.ready_remote and self._idle_worker() is not None:
                node_id = self.ready_remote.popleft()
                self._dispatch(self._idle_worker(), node_id, trace_parent)
            if len(self.done) >= total:
                break
            if self.ready_local:
                continue
            if (self.ready_remote or self.inflight) and not self._any_alive():
                raise ExecutionError(
                    "cluster run failed: every worker was lost with "
                    f"{len(self.ready_remote) + len(self.inflight)} task(s) pending"
                )
            if not self.inflight and not self.ready_remote:
                raise ExecutionError("cluster scheduling stalled: no runnable node")
            self._pump(deadline)

    def close(self) -> None:
        for task in self.inflight.values():
            task.abandon()
        self.inflight.clear()
        self.store.close()

    # -- local execution -----------------------------------------------------

    def _run_local(self, node_id: int) -> None:
        """Run one node here, with the engine's node runner over the store."""
        node = self.graph.node(node_id)
        plan = WorkerPlan(
            node=node,
            inputs=[InputPort(edge_id, stream=self.store.get(edge_id)) for edge_id in node.inputs],
            outputs=[OutputPort(edge_id) for edge_id in node.outputs],
            registry=self.environment.registry,
            streaming=replace(self.config.streaming, spill_directory=self.store.directory),
        )
        metrics = NodeMetrics.of(node)
        with self.tracer.span(
            f"node:{node.label()}", "worker", node_id=node_id, kind=node.kind,
            location="coordinator",
        ):
            try:
                outputs = run_node(plan, metrics)
            except (ExecutionError, OSError):
                raise  # a full disk stays a typed, retryable error
            except Exception as exc:
                raise ExecutionError(f"node {node.label()} failed: {exc}") from exc
        for edge_id, stream in outputs.items():
            self.store.put(edge_id, stream)
        self.metrics.nodes.append(metrics)
        self._complete(node_id)

    # -- remote execution ----------------------------------------------------

    def _any_alive(self) -> bool:
        return any(handle.alive for handle in self.coordinator.workers)

    def _idle_worker(self) -> Optional[ClusterWorkerHandle]:
        for handle in self.coordinator.workers:
            if handle.alive and handle.task is None:
                return handle
        return None

    def _dispatch(
        self, handle: ClusterWorkerHandle, node_id: int, trace_parent: Optional[str]
    ) -> None:
        node = self.graph.node(node_id)
        sinks = {edge_id: self.store.buffer() for edge_id in node.outputs}
        handle.task = node_id
        self.inflight[node_id] = _RemoteTask(node, handle, sinks)
        try:
            handle.channel.send(
                {
                    "type": MSG_TASK,
                    "task_id": node_id,
                    "node": node_to_json(node),
                    "inputs": list(node.inputs),
                    "outputs": list(node.outputs),
                    "use_host_commands": self.config.use_host_commands,
                    "chunk_size": self.config.streaming.chunk_size,
                    "spill_threshold": self.config.streaming.spill_threshold,
                    "trace": trace_parent,
                    "faults": self.coordinator._faults,
                }
            )
            for edge_id in node.inputs:
                frames = self.store.get(edge_id).blocks(self.config.streaming.chunk_size)
                send_edge_stream(handle.channel, node_id, edge_id, frames)
        except (OSError, ProtocolError):
            self._worker_lost(handle)

    def _worker_lost(self, handle: ClusterWorkerHandle) -> None:
        """Declare a worker dead and requeue whatever it was running."""
        if not handle.alive:
            return
        handle.alive = False
        handle.channel.close()
        node_id, handle.task = handle.task, None
        if node_id is not None and node_id in self.inflight:
            task = self.inflight.pop(node_id)
            task.abandon()
            # At-most-once commit: nothing of the lost attempt reached the
            # store, so re-running on another worker yields identical bytes.
            self.ready_remote.appendleft(node_id)
            self.metrics.requeued_tasks += 1

    def _pump(self, deadline: float) -> None:
        """Process one inbox slice: results, frames, heartbeats, losses."""
        try:
            item = self.coordinator._inbox.get(timeout=0.25)
        except queue_module.Empty:
            item = None
        now = time.monotonic()
        if item is not None:
            handle, message = item
            if message is None:
                self._worker_lost(handle)
            else:
                handle.last_seen = now
                self._handle_message(handle, message)
        for handle in self.coordinator.workers:
            if handle.alive and now - handle.last_seen > self.options.heartbeat_timeout:
                self._worker_lost(handle)
        if time.monotonic() > deadline:
            raise ExecutionError(
                f"cluster execution wedged: {len(self.inflight)} task(s) never "
                f"reported (timeout {self.config.report_timeout_seconds}s)"
            )

    def _handle_message(self, handle: ClusterWorkerHandle, message: Dict) -> None:
        kind = message["type"]
        if kind == MSG_HEARTBEAT:
            return
        task_id = message.get("task_id")
        task = self.inflight.get(task_id)
        if task is None or task.handle is not handle:
            return  # stale traffic from a requeued or completed task
        if kind == MSG_CHUNK:
            sink = task.sinks.get(message.get("edge_id"))
            if sink is not None:
                sink.append(message["data"])
            return
        if kind == MSG_EDGE_END:
            return  # commit happens atomically at RESULT time
        if kind == MSG_RESULT:
            self._finish_remote(handle, task_id, task, message["report"])

    def _finish_remote(
        self,
        handle: ClusterWorkerHandle,
        node_id: int,
        task: _RemoteTask,
        report: Dict,
    ) -> None:
        del self.inflight[node_id]
        handle.task = None
        if report.get("error"):
            task.abandon()
            raise ExecutionError(
                f"cluster worker {handle.worker_id} failed on "
                f"{task.node.label()}: {report['error']}"
            )
        for edge_id, sink in task.sinks.items():
            self.store.put(edge_id, sink.store())
        for row in report.get("spans") or ():
            span = SpanRecord.from_dict(row)
            span.set(cluster_worker=handle.worker_id)
            self.tracer.record(span)
        self.metrics.remote_tasks += 1
        self.metrics.nodes.append(NodeMetrics.from_dict(report["metrics"]))
        self._complete(node_id)

    # -- completion ----------------------------------------------------------

    def _complete(self, node_id: int) -> None:
        node = self.graph.node(node_id)
        self.done.add(node_id)
        for edge_id in node.outputs:
            for consumer in self.consumers.get(edge_id, ()):
                pending = self.waiting[consumer]
                if edge_id in pending:
                    pending.discard(edge_id)
                    if not pending:
                        self._enqueue(consumer)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ClusterBackend(ExecutionBackend):
    """The ``cluster`` entry in the engine's backend registry.

    ``config`` is the run's :class:`PashConfig`, as for the parallel backend;
    its ``cluster`` section is the fleet (``ClusterOptions(workers=4)`` runs a
    4-worker localhost cluster, ``connect="HOST:PORT"`` waits there for
    external ``pash-worker`` processes).  Each ``execute`` call owns its
    fleet — started before the run, shut down unconditionally after — so no
    worker process outlives the result.
    """

    name = "cluster"

    def __init__(
        self, config: Optional[PashConfig] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.config = config
        self.tracer = tracer or NULL_TRACER

    def execute(self, graph: DataflowGraph, environment: ExecutionEnvironment) -> EngineResult:
        started = time.perf_counter()
        coordinator = ClusterCoordinator(tracer=self.tracer, config=self.config)
        mark = self.tracer.mark()
        try:
            result, metrics = coordinator.execute(graph, environment)
        finally:
            coordinator.shutdown()
        elapsed = time.perf_counter() - started
        metrics.processes_spawned += coordinator.spawned
        wrapped = self._wrap(result, elapsed, metrics)
        wrapped.spans = self.tracer.since(mark)
        return wrapped
