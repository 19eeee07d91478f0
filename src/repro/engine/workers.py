"""Worker-process bodies for the parallel engine.

Every DFG node is executed by :func:`run_node`: open the input sources
(eager pumps on fan-in edges, direct pipe reads everywhere else, stored
streams for what is already materialized), run the node's kernel, write the
outputs.  It raises on failure and runs wherever its caller is — the cluster
coordinator calls it inline for the nodes it keeps, the scheduler for its
inline lane.  :func:`execute_plan` is its process wrapper, the body of a
persistent pool worker (:mod:`repro.engine.pool`), a dedicated fork or a
``pash-worker`` task, so parallel branches genuinely overlap.

The data plane is *streaming*, not materialize-then-forward, and its unit is
the *line block* — ``bytes`` holding whole ``\\n``-terminated lines, re-cut
from whatever the file or pipe delivered by
:func:`repro.engine.channels.iter_line_blocks`.  No loop here touches a line
and nothing here decodes: every node has one body,
``kernel([source.iter_blocks() for source in sources])`` written to the sinks,
where the kernel is :func:`repro.runtime.executor.block_kernel` — a cat or
relay concatenates (a blocking one stages the whole stream in a spill buffer
first), a command with a bytes twin runs it, a host binary gets the bytes,
and any other node runs through the ``str`` adapter, per block when it is
stateless.  A kernel reads its inputs as lazily as its semantics allow, so a
stateless node holds one block and a sort-like one the stream (its pumps
still spill).  A node with several outputs (a split) writes them
concurrently, one thread per stream, and each sink sees EOF when its own
stream is done: written in turn, branch *k+1* would wait for branch *k*'s
consumer and the branches would run in series.  A command's replicated
output is one stream, each block written to all its sinks in turn.

Workers never raise: every outcome, including failure, is delivered to the
scheduler as a report on the shared queue, and all owned file descriptors are
closed on the way out so that downstream workers always observe EOF instead
of hanging.  A collected stream (a graph output, a gathered branch) travels
in the report as a :class:`~repro.engine.channels.StoredStream`: inline up to
:data:`INLINE_HANDOFF_BYTES`, above that as a file of the run's directory
instead of squeezing through the report queue's pipe.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.api.config import StreamingConfig
from repro.commands import standard_registry
from repro.commands.base import CommandRegistry
from repro.dfg.nodes import CommandNode, DFGNode
from repro.engine.channels import (
    ChannelReader,
    ChannelWriter,
    EagerPump,
    SpillBuffer,
    StoredStream,
    iter_line_blocks,
)
from repro.engine.metrics import NodeMetrics
from repro.obs.tracer import TraceContext, record_worker_span
from repro.resilience import fault as fault_injection
from repro.resilience.fault import FaultPlan
from repro.runtime.executor import block_kernel

#: The largest collected stream that rides inline in its worker's report; a
#: larger one is handed off as a file of the run's directory.  One pipe
#: buffer, from a sweep: 5 MiB takes 5.9 ms pickled through ``mp.Queue`` and
#: 2.8 ms as a file, and the two break even at about 64 KiB.
INLINE_HANDOFF_BYTES = 1 << 16


@dataclass
class InputPort:
    """Where a worker reads one input edge from.

    ``fd`` is the read end of an engine channel; when it is None the edge is
    already materialized and ``stream`` is it — a real on-disk input file,
    or what the scheduler or coordinator resolved or collected up front.
    """

    edge_id: int
    fd: Optional[int] = None
    stream: StoredStream = StoredStream()


@dataclass
class OutputPort:
    """Where a worker writes one output edge to.

    ``fd`` is the write end of an engine channel; when None the stream is
    collected and :func:`run_node` returns it (a graph output, or any edge of
    a node the cluster coordinator runs).
    """

    edge_id: int
    fd: Optional[int] = None


@dataclass
class WorkerPlan:
    """Everything one worker process needs to execute its node."""

    node: DFGNode
    inputs: List[InputPort] = field(default_factory=list)
    outputs: List[OutputPort] = field(default_factory=list)
    registry: Optional[CommandRegistry] = None
    use_host_commands: bool = False
    #: Chunk size, the in-memory high-water mark of every stream buffer this
    #: worker owns and the (run-scoped) directory its spill files go to.
    streaming: StreamingConfig = StreamingConfig()
    #: Every channel fd in the graph; the worker closes the ones it does not
    #: own so that EOF propagates correctly after the fork.  Empty for pool
    #: workers, which only ever receive their own descriptors.
    close_fds: List[int] = field(default_factory=list)
    #: Identifies the scheduler run this plan belongs to; echoed in the
    #: report so a shared (pool) report queue never mixes runs up.
    run_token: int = 0
    #: Tracing handoff: when set, the worker records a span for its node
    #: (parented under the scheduler's run span) and ships it back inside
    #: the report.  ``None`` — the default — skips the span path entirely,
    #: keeping the traced-off hot path at one attribute check.
    trace: Optional[TraceContext] = None
    #: Fault-injection handoff (chaos testing): when set, the worker
    #: installs this plan as its process-global injector before executing,
    #: arming the ``pool:worker-exec``/``spill:write``/``channel:read``
    #: fault points inside the worker.  Unpickling resets the plan's
    #: counters, so fault state is per-process.  ``None`` — the default —
    #: leaves the injection hooks at one global load + None check each.
    faults: Optional[FaultPlan] = None


def host_command_available(node: DFGNode, use_host_commands: bool) -> bool:
    """Whether this node can exec a real binary instead of the Python impl.

    Restricted to single-input single-output command nodes: those map onto a
    plain ``argv < stdin > stdout`` invocation without /dev/fd plumbing.
    """
    return (
        use_host_commands
        and isinstance(node, CommandNode)
        and len(node.inputs) <= 1
        and len(node.outputs) <= 1
        and shutil.which(node.name) is not None
    )


# ---------------------------------------------------------------------------
# Input sources
# ---------------------------------------------------------------------------


class InputSource:
    """Counted, timed consumption of one input port.

    ``chunks`` delivers the port's bytes — a pipe read directly, an eager
    pump's buffer, a stored stream — and the source counts the bytes and
    lines that flowed through, and the seconds spent waiting for them, so
    the worker's report stays accurate without a second pass over the data.
    ``buffer`` is the pump's spill buffer when there is one (its counters
    join the node's).
    """

    def __init__(self, chunks: Iterable[bytes], buffer: Optional[SpillBuffer] = None) -> None:
        self.chunks = chunks
        self.buffer = buffer
        self.bytes_in = 0
        self.lines_in = 0
        self.read_seconds = 0.0

    def iter_blocks(self) -> Iterator[bytes]:
        """The stream as line blocks, counted — the unit every kernel consumes.

        Built on :func:`repro.engine.channels.iter_line_blocks`, so the
        split/carry (UTF-8-safe across chunk boundaries, final newline
        supplied) lives in one place.
        """

        def counted() -> Iterator[bytes]:
            chunks = iter(self.chunks)
            while True:
                started = time.perf_counter()
                chunk = next(chunks, None)
                self.read_seconds += time.perf_counter() - started
                if chunk is None:
                    return
                self.bytes_in += len(chunk)
                yield chunk

        for block in iter_line_blocks(counted()):
            self.lines_in += block.count(b"\n")
            yield block


def _open_sources(plan: WorkerPlan) -> List[InputSource]:
    """One source per input port; fan-in channels get eager pumps.

    Deadlock-freedom needs eager buffering only where a worker consumes
    several channels *sequentially*: starting one pump per channel before
    any consumption guarantees no producer blocks on an input this worker
    has not reached yet.  A node with a single channel input is itself a
    continuous consumer, so it reads the pipe directly — zero extra threads,
    zero extra copies on every straight-line edge, and backpressure remains
    the kernel's pipe buffer, exactly like a plain shell pipeline.  A stored
    stream never blocks on another worker, so it needs no pump either.
    """
    channel_ports = sum(1 for port in plan.inputs if port.fd is not None)
    pump_channels = channel_ports >= 2
    sources: List[InputSource] = []
    for port in plan.inputs:
        if port.fd is None:
            sources.append(InputSource(port.stream.blocks(plan.streaming.chunk_size)))
            continue
        reader = ChannelReader(port.fd, chunk_size=plan.streaming.chunk_size)
        if pump_channels:
            pump = EagerPump(
                reader, plan.streaming.spill_threshold, plan.streaming.spill_directory
            )
            pump.start()
            sources.append(InputSource(pump.iter_chunks(), pump.buffer))
        else:
            sources.append(InputSource(reader.iter_chunks()))
    return sources


# ---------------------------------------------------------------------------
# Output sinks
# ---------------------------------------------------------------------------


class OutputSink:
    """Uniform, counted, timed production API over one output port."""

    bytes_out = 0
    lines_out = 0
    write_seconds = 0.0

    def write_chunk(self, data: bytes) -> None:
        """Write one line block."""
        raise NotImplementedError

    def write(self, block: bytes) -> None:
        """Write one line block of a kernel's output, timed."""
        started = time.perf_counter()
        self.write_chunk(block)
        self.write_seconds += time.perf_counter() - started

    def finish(self) -> None:
        """Flush and close the destination (EOF downstream)."""

    def abandon(self) -> None:
        """Release the destination without flushing (failure path)."""


class ChannelSink(OutputSink):
    """An internal edge: writes go to the channel, chunked and counted.

    A consumer that exited early (e.g. ``head``) surfaces as
    ``BrokenPipeError``; like a process receiving SIGPIPE, the sink stops
    writing and swallows the rest of the stream.
    """

    def __init__(self, fd: int, chunk_size: int) -> None:
        self.writer = ChannelWriter(fd, chunk_size=chunk_size)
        self.dead = False

    @property
    def bytes_out(self) -> int:  # type: ignore[override]
        return self.writer.bytes_written

    @property
    def lines_out(self) -> int:  # type: ignore[override]
        return self.writer.lines_written

    def write_chunk(self, data: bytes) -> None:
        self._unless_dead(self.writer.write_chunk, data)

    def finish(self) -> None:
        self._unless_dead(self.writer.close)

    def _unless_dead(self, action, *arguments) -> None:
        if self.dead:
            return
        try:
            action(*arguments)
        except BrokenPipeError:
            self.dead = True
            self.writer.abandon()

    def abandon(self) -> None:
        self.writer.abandon()


class ReportSink(OutputSink):
    """A collected edge: counted, appended to a spill buffer, handed off.

    A stream of at most :data:`INLINE_HANDOFF_BYTES` (or the spill threshold,
    when that is lower) travels inline; a larger one is a file of the run's
    directory, so it neither sits in worker memory nor squeezes through the
    report queue's pipe.  Whoever receives the stored stream reads it and
    removes the file.
    """

    def __init__(self, streaming: StreamingConfig) -> None:
        self.buffer = SpillBuffer(
            min(streaming.spill_threshold, INLINE_HANDOFF_BYTES), streaming.spill_directory
        )

    def write_chunk(self, data: bytes) -> None:
        self.bytes_out += len(data)
        self.lines_out += data.count(b"\n")
        self.buffer.append(data)

    def abandon(self) -> None:
        self.buffer.abandon()


def _open_sinks(plan: WorkerPlan) -> List[OutputSink]:
    return [
        ReportSink(plan.streaming) if port.fd is None else ChannelSink(port.fd, plan.streaming.chunk_size)
        for port in plan.outputs
    ]


# ---------------------------------------------------------------------------
# The node runner and its process wrapper
# ---------------------------------------------------------------------------


def _write_outputs(sinks: List[OutputSink], streams: list) -> None:
    """Write each stream to its sinks and finish them, all streams at once.

    A stream on several edges (a command's replicated output) is one object:
    each block goes to all its sinks as it is produced.  One writer thread per
    extra stream (``os.write`` drops the GIL); the first failure is re-raised
    once every thread is done.
    """
    errors: List[BaseException] = []
    groups: Dict[int, tuple] = {}
    for sink, stream in zip(sinks, streams):
        groups.setdefault(id(stream), (stream, []))[1].append(sink)

    def drain(stream, targets: List[OutputSink]) -> None:
        try:
            for piece in stream:
                for sink in targets:
                    sink.write(piece)
            for sink in targets:
                sink.finish()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the node
            errors.append(exc)

    pairs = list(groups.values())
    threads = [threading.Thread(target=drain, args=pair) for pair in pairs[1:]]
    for thread in threads:
        thread.start()
    for pair in pairs[:1]:
        drain(*pair)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_node(plan: WorkerPlan, metrics: NodeMetrics) -> Dict[int, StoredStream]:
    """Evaluate the plan's node in this process; raises when it fails.

    Opens the sources and sinks, writes the node's kernel over the sources'
    blocks to the sinks and finishes them.  Returns every collected output
    edge (a port without ``fd``) as a stored stream; on failure the partial
    ones are abandoned, so no spill file outlives the error.  ``metrics`` is
    filled either way: ``compute_seconds`` is the wall time less what the
    sources spent reading and the sinks spent writing.
    """
    started = time.perf_counter()
    sources: List[InputSource] = []
    sinks: List[OutputSink] = []
    staging: List[SpillBuffer] = []

    def stage() -> SpillBuffer:
        staging.append(SpillBuffer(plan.streaming.spill_threshold, plan.streaming.spill_directory))
        return staging[-1]

    try:
        sources = _open_sources(plan)
        sinks = _open_sinks(plan)
        # The standard registry is not shipped with a plan: re-created here.
        registry = standard_registry() if plan.registry is None else plan.registry
        metrics.host_command = host_command_available(plan.node, plan.use_host_commands)
        kernel = block_kernel(plan.node, registry, metrics.host_command, stage)
        outputs = kernel([source.iter_blocks() for source in sources])
        # The interpreter's arity check: a mismatch is a loud error, not
        # silently-empty downstream edges.
        if len(outputs) != len(sinks):
            raise RuntimeError(
                f"node {plan.node.label()} produced {len(outputs)} streams for "
                f"{len(sinks)} output edges"
            )
        _write_outputs(sinks, outputs)
        return {
            port.edge_id: sink.buffer.store()
            for port, sink in zip(plan.outputs, sinks)
            if isinstance(sink, ReportSink)
        }
    except BaseException:
        for sink in sinks:
            try:
                sink.abandon()
            except Exception:  # pragma: no cover - defensive
                pass
        raise
    finally:
        for source in sources:
            metrics.bytes_in += source.bytes_in
            metrics.lines_in += source.lines_in
        for sink in sinks:
            metrics.bytes_out += sink.bytes_out
            metrics.lines_out += sink.lines_out
        buffers = [
            *(source.buffer for source in sources if source.buffer is not None),
            *(sink.buffer for sink in sinks if isinstance(sink, ReportSink)),
            *staging,
        ]
        metrics.peak_buffered_bytes = max(
            (buffer.peak_buffered_bytes for buffer in buffers), default=0
        )
        metrics.spilled_bytes = sum(buffer.spilled_bytes for buffer in buffers)
        metrics.spill_events = sum(buffer.spill_events for buffer in buffers)
        metrics.wall_seconds = time.perf_counter() - started
        waited = sum(source.read_seconds for source in sources) + sum(sink.write_seconds for sink in sinks)
        metrics.compute_seconds = max(0.0, metrics.wall_seconds - waited)


def node_report(
    plan: WorkerPlan,
    metrics: NodeMetrics,
    outputs: Dict[int, StoredStream],
    error: Optional[str],
    start_us: int,
) -> Dict[str, object]:
    """What one evaluation of ``plan``'s node tells the scheduler.

    The node's :class:`~repro.engine.metrics.NodeMetrics` (as ``to_dict()``
    under ``"metrics"``) plus either its collected streams or an error
    string, and — when the plan is traced — its ``node:`` span, which
    carries the node's full counter set as attributes, so byte/line/spill
    flow is queryable per span in any exporter.
    """
    report: Dict[str, object] = {
        "node_id": plan.node.node_id,
        "token": plan.run_token,
        "error": error,
        "outputs": outputs,
        "metrics": metrics.to_dict(),
    }
    if plan.trace is not None:
        span = record_worker_span(
            plan.trace,
            name=f"node:{metrics.label}",
            category="worker",
            start_us=start_us,
            duration_us=int(metrics.wall_seconds * 1e6),
            attributes={"error": error, **report["metrics"]},
        )
        report["spans"] = [span]
    return report


def execute_plan(plan: WorkerPlan, report_queue) -> None:
    """Process body: :func:`run_node`, with the outcome reported, never raised.

    The :func:`node_report` always reaches the queue — the span, when there
    is one, rides in the same pickle: no extra channel, no cost when tracing
    is off.
    """
    metrics = NodeMetrics.of(plan.node)
    outputs: Dict[int, StoredStream] = {}
    error: Optional[str] = None
    start_us = time.time_ns() // 1_000 if plan.trace is not None else 0
    mine = {port.fd for port in plan.inputs + plan.outputs if port.fd is not None}
    try:
        if plan.faults is not None:
            fault_injection.install(plan.faults)
        fault_injection.fire(fault_injection.POOL_WORKER_EXEC)
        for fd in plan.close_fds:
            if fd not in mine:
                try:
                    os.close(fd)
                except OSError:
                    pass
        outputs = run_node(plan, metrics)
    except BaseException as exc:  # noqa: BLE001 - reported, never raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        # Guarantee EOF downstream even on failure paths.
        for fd in mine:
            try:
                os.close(fd)
            except OSError:
                pass
        report_queue.put(node_report(plan, metrics, outputs, error, start_us))
