"""The multiprocess DFG scheduler.

Instantiates a :class:`~repro.dfg.graph.DataflowGraph` the way PaSh's runtime
does (§5.2): one OS pipe per internal edge, one worker process per node, all
running concurrently so parallel branches created by the optimizer overlap on
real hardware.  Unlike the original one-``fork``-per-node-per-run design, the
scheduler now draws workers from a persistent :class:`~repro.engine.pool.WorkerPool`
(processes are created once and reused across runs — the dominant cost of
short pipelines was our own spawning) and rationalizes the data plane with
the order-aware dataflow analysis:

* **elision** (:mod:`repro.dfg.elision`) — a node gets a process only when
  something must move bytes.  A non-blocking identity relay does not: the
  producer is wired pipe-to-pipe to the relay's consumer, and the eager
  buffering it stood for is provided by the consumer-side pumps (below).
  Nor do the two endpoints where a stream is *at rest*: a split over a
  regular file is byte ranges of it (each consumer opens the file and reads
  its own, :func:`~repro.engine.channels.file_ranges`), and a ``cat`` or an
  aggregator into a graph output is collection (each producer reports its
  branch, and the decoded branches are combined here by the interpreter's
  own :func:`~repro.runtime.executor.evaluate_node`).  Blocking relays keep
  their worker — absorb-then-forward is observable timing semantics
  (Fig. 6) — and so do a split fed by a pipe, stdin or an in-memory file and
  an aggregator in the middle of a graph.
* **the inline lane** — a command whose inputs are at rest and whose
  outputs are collected crosses no pipe, so the coordinator evaluates one
  such lane itself (:func:`~repro.engine.workers.run_node`, between
  dispatch and collection) instead of idling in ``poll``: a width-*w* run
  holds *w − 1* pool workers.  Its outcome is landed like a worker's report.
* **pump rationalization** — eager-pump threads are started only on edges
  that are deadlock-relevant: fan-in nodes (aggregators, ``cat`` combiners,
  anything consuming two or more channels sequentially).  Straight-line
  edges are read directly, with kernel-pipe backpressure and zero extra
  copies — see :func:`repro.engine.workers._open_sources`.

Graph-input edges (stdin, input files) are resolved against the execution
environment up front and handed to the workers as stored streams
(:class:`~repro.engine.channels.StoredStream`: an on-disk file by its path,
anything else as its bytes); graph-output edges come back the same way in
the worker reports, are decoded here — the one decode of a graph output —
and delivered through the same :func:`repro.runtime.executor.deliver_outputs`
path as the interpreter, so the two backends are observationally identical.
"""

from __future__ import annotations

import copy
import itertools
import os
import queue as queue_module
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.api.config import PashConfig, StreamingConfig
from repro.commands.base import Stream
from repro.commands.registry import standard_registry
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.elision import Elisions, plan_elisions
from repro.dfg.nodes import AggregatorNode, FusedStage, RelayNode
from repro.engine.channels import Channel, StoredStream, encode_lines, file_ranges
from repro.engine.metrics import EngineMetrics, NodeMetrics
from repro.engine.pool import WorkerPool, resolve_context, shared_pool
from repro.engine.workers import (
    InputPort,
    OutputPort,
    WorkerPlan,
    execute_plan,
    node_report,
    run_node,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience import fault as fault_injection
from repro.runtime.executor import (
    ExecutionEnvironment,
    ExecutionError,
    ExecutionResult,
    deliver_outputs,
    evaluate_node,
    resolve_graph_input,
)

#: Distinguishes runs on a shared (pool) report queue.
_run_tokens = itertools.count(1)


class ParallelScheduler:
    """Executes dataflow graphs with one (pooled) worker process per node
    that moves bytes — less the inline lane, which the coordinator runs.

    The engine's knobs come straight from the :class:`PashConfig`:
    ``streaming`` (chunk size, spill threshold and directory),
    ``use_host_commands``, ``report_timeout_seconds``, ``jobs`` (``0`` = one
    dedicated fork per node instead of the pool, ``N`` = pre-warm the pool
    to N workers) and the ``resilience`` fault plan shipped to every worker.
    The multiprocessing start method is the pool's.
    """

    def __init__(
        self,
        environment: Optional[ExecutionEnvironment] = None,
        config: Optional[PashConfig] = None,
        pool: Optional[WorkerPool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.environment = environment or ExecutionEnvironment()
        self.config = PashConfig.coerce(config)
        #: Shipped to every worker; each receives a pristine copy per
        #: dispatch — fault state is per-process.
        self._faults = self.config.resilience.fault_plan()
        self._pool = pool
        self.tracer = tracer or NULL_TRACER

    # ------------------------------------------------------------------

    def execute(self, graph: DataflowGraph) -> Tuple[ExecutionResult, EngineMetrics]:
        """Run ``graph``; returns its outputs and the measured metrics.

        Raises :class:`ExecutionError` when any worker fails or the run
        wedges (a worker died without reporting).
        """
        graph.validate()
        started = time.perf_counter()
        metrics = EngineMetrics(backend="parallel")
        result = ExecutionResult()

        if not graph.nodes:
            deliver_outputs(graph, {}, self.environment, result)
            metrics.elapsed_seconds = time.perf_counter() - started
            return result, metrics

        pool = self._resolve_pool()
        context = pool.context if pool is not None else resolve_context("fork")
        if pool is None and context.get_start_method() != "fork":
            raise ExecutionError(
                "the parallel backend needs the worker pool on platforms "
                "without the 'fork' start method (channel descriptors cannot "
                "be inherited otherwise); do not set jobs=0 here"
            )

        at_rest = self._inputs_at_rest(graph)
        elisions = plan_elisions(graph, at_rest)
        self._annotate_fusion(graph, metrics)
        metrics.relays_elided = sum(isinstance(n, RelayNode) for n in elisions.skipped.values())
        metrics.splits_ranged = len(elisions.ranged)
        metrics.aggregators_gathered = sum(
            isinstance(node, AggregatorNode) for node in elisions.gathers.values()
        )
        metrics.cats_gathered = len(elisions.gathers) - metrics.aggregators_gathered
        metrics.lanes_inline = int(elisions.inline is not None)

        # One run at a time per pool: a run's reports travel through the
        # pool's shared queue, so an interleaved run would steal them.
        run_guard = pool.run_lock if pool is not None else nullcontext()
        run_span = self.tracer.span(
            "engine:run",
            "scheduler",
            nodes=len(graph.nodes),
            relays_elided=metrics.relays_elided,
            splits_ranged=metrics.splits_ranged,
            cats_gathered=metrics.cats_gathered,
            aggregators_gathered=metrics.aggregators_gathered,
            lanes_inline=metrics.lanes_inline,
        )
        with run_span, run_guard:
            return self._execute_locked(
                graph, metrics, result, context, pool, elisions, at_rest, started
            )

    def _execute_locked(
        self, graph, metrics, result, context, pool, elisions, at_rest, started
    ) -> Tuple[ExecutionResult, EngineMetrics]:
        skipped = elisions.skipped
        # Grow the pool *before* any of this run's pipes exist: under fork a
        # worker spawned later would inherit the pipes and hold their write
        # ends open forever (consumers would never see EOF).
        pool_growth = 0
        if pool is not None:
            with self.tracer.span("scheduler:spawn", "scheduler") as spawn_span:
                spawn_started = time.perf_counter()
                spawned_before = pool.processes_spawned
                pool.ensure_idle(
                    len(graph.nodes) - len(skipped) - metrics.lanes_inline
                )
                pool_growth = pool.processes_spawned - spawned_before
                metrics.spawn_seconds += time.perf_counter() - spawn_started
                spawn_span.set(processes_spawned=pool_growth)

        channels = self._open_channels(graph, elisions)
        all_fds = [fd for channel in channels.values() for fd in channel.fds()]
        # All of this run's spill files (pump overflow, collected streams
        # handed off as files) live in one run-scoped directory, removed
        # unconditionally on the way out — so even a worker killed before
        # reporting cannot leak its spill file.
        spill_directory = self.config.streaming.spill_directory
        if spill_directory:
            os.makedirs(spill_directory, exist_ok=True)
        run_spill_directory = tempfile.mkdtemp(
            prefix="pash-run-spill-", dir=spill_directory
        )
        streaming = replace(self.config.streaming, spill_directory=run_spill_directory)
        token = next(_run_tokens)
        pooled: Dict[int, object] = {}  # node_id -> PoolWorker
        reports: Dict[int, dict] = {}
        edge_values: Dict[int, Stream] = {}
        failed = False  # a landed report carried an error: the run will raise

        def land(report: dict) -> None:
            """Decode a report's collected streams as it arrives, while slower
            lanes still run; every stored file is removed either way."""
            nonlocal failed
            failed = failed or bool(report["error"])
            for edge_id, stored in report["outputs"].items():
                try:
                    if not failed:
                        edge_values[edge_id] = stored.lines(streaming.spill_threshold)
                finally:
                    stored.unlink()

        try:
            # Captured before the plan span opens: worker spans parent under
            # the enclosing engine:run span, not under scheduler:plan (their
            # execution long outlives the planning interval).
            worker_trace = self.tracer.context()
            with self.tracer.span("scheduler:plan", "scheduler"):
                for node_id, edge_id in elisions.ranged.items():
                    # Each consumer of a ranged split: its line-aligned part.
                    outputs = graph.node(node_id).outputs
                    at_rest.update(zip(outputs, file_ranges(at_rest[edge_id].path, len(outputs))))
                plans = [
                    self._plan(
                        node_id, graph, channels, all_fds, streaming,
                        elisions, at_rest, token, worker_trace,
                    )
                    for node_id in self._topo_ids(graph)
                    if node_id not in skipped
                ]
            self._count_edge_modes(plans, metrics)
            inline = [plan for plan in plans if plan.node.node_id == elisions.inline]
            plans = [plan for plan in plans if plan.node.node_id != elisions.inline]

            report_queue = pool.report_queue if pool is not None else context.Queue()
            processes = []
            spawn_started = time.perf_counter()
            dispatch_span = self.tracer.span(
                "scheduler:dispatch", "scheduler", plans=len(plans)
            )
            try:
                with dispatch_span:
                    for plan in plans:
                        if pool is not None:
                            worker = pool.dispatch(plan)
                            if worker is not None:
                                pooled[plan.node.node_id] = worker
                                processes.append((plan.node, worker.process))
                                continue
                        # Dedicated fork: the plan cannot travel to a persistent
                        # worker (unpicklable custom registry) or pooling is off
                        # (``jobs=0``).
                        # The child inherits every channel fd and closes the ones
                        # it does not own.
                        if context.get_start_method() != "fork":
                            raise ExecutionError(
                                f"node {plan.node.label()} carries a command "
                                "registry that cannot be pickled to a pool worker, "
                                "and the fallback fork path is unavailable under "
                                f"the {context.get_start_method()!r} start method"
                            )
                        process = context.Process(
                            target=execute_plan,
                            args=(plan, report_queue),
                            name=f"pash-node-{plan.node.node_id}",
                        )
                        process.start()
                        metrics.processes_spawned += 1
                        processes.append((plan.node, process))
            finally:
                metrics.spawn_seconds += time.perf_counter() - spawn_started
                metrics.processes_spawned += pool_growth
                metrics.processes_reused += max(0, len(pooled) - pool_growth)
                # The parent holds no edge: drop every channel fd so that EOF
                # propagation is entirely between the workers.
                for channel in channels.values():
                    channel.close()

            # The inline lane reads only at-rest inputs and writes only to
            # collection, so it never waits on a worker: it runs here while
            # they run theirs, and lands first.
            inline_reports = [self._run_inline(plan) for plan in inline]
            for report in inline_reports:
                land(report)
            with self.tracer.span("scheduler:collect", "scheduler"):
                reports = self._collect_reports(
                    report_queue, processes, len(plans), token, land
                )
            reports.update((report["node_id"], report) for report in inline_reports)
            for node, process in processes:
                if node.node_id in pooled:
                    continue  # pool workers stay alive by design
                process.join(timeout=self.config.report_timeout_seconds)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()

            failures = [report for report in reports.values() if report["error"]]
            if failures:
                detail = "; ".join(
                    f"{report['metrics']['label']}: {report['error']}" for report in failures
                )
                raise ExecutionError(f"{len(failures)} worker(s) failed: {detail}")

            for report in reports.values():
                for span in report.get("spans") or ():
                    # Worker-side spans arrive through the report queue; the
                    # worker cannot know whether its process was a fresh fork
                    # or a pool reuse, so attribution lands here.
                    span.set(reused_worker=report["node_id"] in pooled)
                    self.tracer.record(span)
                node_metrics = NodeMetrics.from_dict(report["metrics"])
                node_metrics.reused_worker = report["node_id"] in pooled
                metrics.nodes.append(node_metrics)
            metrics.nodes.sort(key=lambda node: node.node_id)
            for edge_id, node in elisions.gathers.items():
                # The tail cat or aggregator, done where its branches already
                # are at rest, by the evaluator the interpreter uses.
                branches = [edge_values.pop(branch) for branch in node.inputs]
                with self.tracer.span("scheduler:gather", "scheduler", node=node.label()):
                    try:
                        (edge_values[edge_id],) = evaluate_node(
                            node, branches, self.environment.registry
                        )
                    except Exception as exc:  # what its worker would have reported
                        raise ExecutionError(
                            f"1 worker(s) failed: {node.label()}: {type(exc).__name__}: {exc}"
                        ) from exc
        except Exception:
            for channel in channels.values():
                channel.close()
            if pool is not None:
                # Flush reports a wedged or abandoned worker may still queue.
                pool.drain_stale_reports()
            raise
        finally:
            if pool is not None:
                # Exactly one hand-back per dispatched worker: reported ones
                # return to the idle set, the rest may be wedged mid-node and
                # are dropped (the pool re-grows lazily next run).
                for node_id, worker in pooled.items():
                    if node_id in reports:
                        pool.release(worker)
                    else:
                        pool.discard(worker)
            shutil.rmtree(run_spill_directory, ignore_errors=True)

        with self.tracer.span("scheduler:deliver", "scheduler"):
            deliver_outputs(graph, edge_values, self.environment, result)
        result.edge_values.update(edge_values)
        metrics.elapsed_seconds = time.perf_counter() - started
        return result, metrics

    # ------------------------------------------------------------------

    def _resolve_pool(self) -> Optional[WorkerPool]:
        jobs = self.config.jobs
        if jobs is not None and jobs <= 0:
            return None
        pool = self._pool
        if pool is None or pool.closed:
            pool = shared_pool()
        if jobs:
            pool.prewarm(jobs)
        return pool

    @staticmethod
    def _topo_ids(graph: DataflowGraph) -> List[int]:
        return [node.node_id for node in graph.topological_order()]

    @staticmethod
    def _annotate_fusion(graph: DataflowGraph, metrics: EngineMetrics) -> None:
        for node in graph.nodes.values():
            if isinstance(node, FusedStage):
                metrics.stages_fused += 1
                metrics.commands_fused += len(node.nodes)

    # -- elision -------------------------------------------------------------

    def _inputs_at_rest(self, graph: DataflowGraph) -> Dict[int, StoredStream]:
        """The graph inputs that are regular on-disk files, by edge id.

        A file that exists only on the real filesystem (the VFS fallback) is
        handed to its worker as a path, so the consuming process streams it
        instead of the parent materializing every line.  Asked once a run:
        the elision plan, the byte ranges and the ports all read this table.
        """
        at_rest: Dict[int, StoredStream] = {}
        for edge in graph.input_edges():
            if edge.kind is EdgeKind.FILE and edge.name:
                path = self.environment.filesystem.real_path(edge.name)
                if path is not None:
                    # Resolved here, against *this* process's cwd: a persistent
                    # pool worker may have been spawned under a different one.
                    at_rest[edge.edge_id] = StoredStream(path=os.path.abspath(path))
        return at_rest

    def _open_channels(self, graph: DataflowGraph, elisions: Elisions) -> Dict[int, Channel]:
        """One OS pipe per *stream*: elided relays do not split an edge in two.

        Channels are keyed by the stream's head edge (the producing worker's
        output edge); consumers look their read end up by following their
        input edge back to that head.  A stream no worker consumes — a graph
        output, a gathered node's branch — is collected, not piped.
        """
        channels: Dict[int, Channel] = {}
        for edge_id in sorted(graph.edges):
            edge = graph.edges[edge_id]
            if edge.source is None or edge.source in elisions.skipped:
                continue
            tail = graph.edge(elisions.tail(edge_id))
            if tail.target is None or tail.target in elisions.skipped:
                continue
            channels[edge_id] = Channel(edge_id, chunk_size=self.config.streaming.chunk_size)
        return channels

    # -- planning ------------------------------------------------------------

    def _plan(
        self,
        node_id: int,
        graph: DataflowGraph,
        channels: Dict[int, Channel],
        all_fds: List[int],
        streaming: StreamingConfig,
        elisions: Elisions,
        at_rest: Dict[int, StoredStream],
        token: int,
        trace=None,
    ) -> WorkerPlan:
        node = graph.node(node_id)
        inputs = []
        for edge_id in node.inputs:
            head = elisions.head(edge_id)
            if head in channels:
                inputs.append(InputPort(edge_id, fd=channels[head].read_fd))
            elif head in at_rest:
                inputs.append(InputPort(edge_id, stream=at_rest[head]))
            else:
                lines = resolve_graph_input(graph.edge(head), self.environment)
                inputs.append(InputPort(edge_id, stream=StoredStream(encode_lines(lines))))
        outputs = []
        for edge_id in node.outputs:
            if edge_id in channels:
                outputs.append(OutputPort(edge_id, fd=channels[edge_id].write_fd))
            else:
                # Collected (possibly through elided relays): report the
                # stream under its last edge's id — the graph output, so
                # delivery finds it, or a gathered node's input.
                outputs.append(OutputPort(elisions.tail(edge_id)))
        registry = self.environment.registry
        if registry is standard_registry():
            # The standard registry is re-created in the worker (cheap, cached
            # per process); not shipping it keeps plans small and makes them
            # picklable under every start method.
            registry = None
        return WorkerPlan(
            node=node,
            inputs=inputs,
            outputs=outputs,
            registry=registry,
            use_host_commands=self.config.use_host_commands,
            streaming=streaming,
            close_fds=all_fds,
            run_token=token,
            trace=trace,
            faults=self._faults,
        )

    def _run_inline(self, plan: WorkerPlan) -> dict:
        """Evaluate the inline lane in this process; its report, never raised.

        :func:`run_node`, not :func:`execute_plan`: every channel fd of the
        run belongs to this process, so none is closed here, and the
        coordinator is no pool worker, so ``pool:worker-exec`` does not
        fire.  The plan's fault plan — a pristine copy, as a dispatch would
        unpickle — is installed around the call, and the coordinator's own
        restored after it.
        """
        metrics = NodeMetrics.of(plan.node)
        outputs: Dict[int, StoredStream] = {}
        error: Optional[str] = None
        start_us = time.time_ns() // 1_000 if plan.trace is not None else 0
        previous = fault_injection.active()
        if plan.faults is not None:
            fault_injection.install(copy.copy(plan.faults))
        try:
            outputs = run_node(plan, metrics)
        except Exception as exc:  # reported as its worker would have
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if plan.faults is not None:
                fault_injection.install(previous)
        return node_report(plan, metrics, outputs, error, start_us)

    @staticmethod
    def _count_edge_modes(plans: List[WorkerPlan], metrics: EngineMetrics) -> None:
        for plan in plans:
            channel_inputs = sum(1 for port in plan.inputs if port.fd is not None)
            if channel_inputs == 0:
                continue
            if channel_inputs >= 2:
                metrics.edges_buffered += channel_inputs
            else:
                metrics.edges_direct += channel_inputs

    # -- report collection ---------------------------------------------------

    def _collect_reports(
        self, report_queue, processes, expected: int, token: int, land
    ) -> Dict[int, dict]:
        """Gather one report per worker, failing fast on dead workers.

        ``land(report)`` is called on each report as it arrives.

        A worker killed by a signal (SIGKILL, OOM) never reaches its
        ``finally`` block, so its report never arrives; waiting for the full
        timeout would hang the run for minutes on an already-observable
        death.  Poll in short slices and check the process table between
        them.  Reports carrying a different run token are leftovers of an
        abandoned earlier run on a shared pool queue and are dropped.
        """
        reports: Dict[int, dict] = {}
        deadline = time.monotonic() + self.config.report_timeout_seconds

        def take(block_seconds: float) -> bool:
            report = report_queue.get(timeout=block_seconds)
            if report.get("token", token) != token:
                return False
            reports[report["node_id"]] = report
            land(report)
            return True

        while len(reports) < expected:
            try:
                take(0.25)
                continue
            except queue_module.Empty:
                pass
            dead = [
                (node, process)
                for node, process in processes
                if node.node_id not in reports and not process.is_alive()
            ]
            if dead:
                # Grace period: a report written just before exit may still
                # be in flight through the queue's pipe.
                try:
                    while len(reports) < expected:
                        take(1.0)
                except queue_module.Empty:
                    pass
                silent = [
                    (node, process)
                    for node, process in dead
                    if node.node_id not in reports
                ]
                if silent:
                    self._terminate(processes, reports)
                    detail = "; ".join(
                        f"{node.label()} (exit code {process.exitcode})"
                        for node, process in silent
                    )
                    raise ExecutionError(f"worker(s) died without reporting: {detail}")
            if time.monotonic() > deadline:
                self._terminate(processes, reports)
                missing = expected - len(reports)
                raise ExecutionError(
                    f"parallel execution wedged: {missing} worker(s) never reported "
                    f"(timeout {self.config.report_timeout_seconds}s)"
                )
        return reports

    @staticmethod
    def _terminate(processes, reports: Dict[int, dict]) -> None:
        """Stop workers still stuck in this run (reported ones are done)."""
        for node, process in processes:
            if node.node_id not in reports and process.is_alive():
                process.terminate()

    # -- delivery ------------------------------------------------------------



def execute_graph_parallel(
    graph: DataflowGraph,
    environment: Optional[ExecutionEnvironment] = None,
    config: Optional[PashConfig] = None,
    pool: Optional[WorkerPool] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[ExecutionResult, EngineMetrics]:
    """Convenience wrapper: execute ``graph`` on the parallel scheduler."""
    return ParallelScheduler(environment, config, pool=pool, tracer=tracer).execute(graph)
