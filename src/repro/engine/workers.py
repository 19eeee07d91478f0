"""Worker-process bodies for the parallel engine.

Every DFG node is executed by :func:`run_node`: open the input sources
(eager pumps on fan-in edges, direct pipe reads everywhere else, stored
streams for what is already materialized), evaluate the node, write the
outputs.  It raises on failure and runs wherever its caller is — the cluster
coordinator calls it inline for the nodes it keeps, the scheduler for its
inline lane.  :func:`execute_plan` is its process wrapper, the body of a
persistent pool worker (:mod:`repro.engine.pool`), a dedicated fork or a
``pash-worker`` task.
Command nodes either exec the real host binary (when enabled and available)
or run the registry's pure-Python implementation — either way in a separate
process, so parallel branches genuinely overlap.

The data plane is *streaming*, not materialize-then-forward, and its unit is
the *line block* — ``bytes`` holding whole ``\\n``-terminated lines, re-cut
from whatever the file or pipe delivered by
:func:`repro.engine.channels.iter_line_blocks`.  No loop here touches a line.
Each node runs in one of three modes, picked by :func:`execution_mode`:

* ``chunks`` — pure pass-through nodes (relays, concatenations) forward each
  block from their inputs to their outputs without decoding it; memory use
  is one block.
* ``batches`` — stateless commands and fused stateless chains (per the
  Table-1 annotation classes; see
  :func:`repro.runtime.executor.node_streams_statelessly`) are evaluated one
  block at a time, which is bit-identical to whole-stream evaluation by the
  same property that makes them parallelizable; memory use is one block.
  A :class:`~repro.dfg.nodes.FusedStage` runs its whole command chain over
  each block in-process — no pipe, pump, or re-framing between members.
* ``materialize`` — everything else (sort-likes, fused chains that end in
  one, aggregators, splits, host commands) still needs the whole stream,
  and a fused chain's kernels compose over it; the eager pumps that feed it
  buffer at most ``spill_threshold`` bytes in memory and spill the rest to
  disk, so the *channel* layer stays bounded even here.  A node with several
  outputs (a split) writes them concurrently, one thread per sink, and each
  sink sees EOF when its own stream is done: written in turn, branch *k+1*
  would wait for branch *k*'s consumer and the branches would run in series.

In the last two modes the node's kernel receives the blocks themselves when
:func:`repro.runtime.executor.block_kernel` finds a bytes kernel for its
command and flags, and the decoded ``List[str]`` otherwise — the path is
chosen by what the node is, never by a setting.

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
import subprocess
import threading
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.api.config import StreamingConfig
from repro.commands import standard_registry
from repro.commands.base import CommandRegistry, Stream
from repro.dfg.elision import is_plain_cat
from repro.dfg.nodes import CatNode, CommandNode, DFGNode, FusedStage, RelayNode
from repro.engine.channels import (
    ChannelReader,
    ChannelWriter,
    EagerPump,
    SpillBuffer,
    StoredStream,
    decode_block,
    encode_block,
    encode_lines,
    iter_line_blocks,
    iter_line_slices,
)
from repro.engine.metrics import NodeMetrics
from repro.obs.tracer import TraceContext, record_worker_span
from repro.resilience import fault as fault_injection
from repro.resilience.fault import FaultPlan
from repro.runtime.executor import (
    block_kernel,
    evaluate_node,
    node_streams_statelessly,
)

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


def execution_mode(plan: WorkerPlan) -> str:
    """Pick the streaming mode for this plan: chunks, batches, or materialize."""
    node = plan.node
    if host_command_available(node, plan.use_host_commands):
        return "materialize"
    if isinstance(node, (CatNode, RelayNode)) or is_plain_cat(node):
        return "chunks"
    if node_streams_statelessly(node):
        return "batches"
    return "materialize"


def _run_host_command(node: CommandNode, inputs: List[Stream]) -> Stream:
    """Execute the node as a real subprocess (input via stdin, LC_ALL=C)."""
    argv = [node.name] + list(node.arguments)
    payload = encode_lines(inputs[0]) if inputs else b""
    environment = dict(os.environ, LC_ALL="C")
    completed = subprocess.run(
        argv, input=payload, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=environment
    )
    if completed.returncode != 0:
        detail = completed.stderr.decode("utf-8", "replace").strip()
        raise RuntimeError(f"host command {node.name!r} exited {completed.returncode}: {detail}")
    return decode_block(completed.stdout)


# ---------------------------------------------------------------------------
# Input sources
# ---------------------------------------------------------------------------


class InputSource:
    """Counted consumption of one input port.

    ``chunks`` delivers the port's bytes — a pipe read directly, an eager
    pump's buffer, a stored stream — and the source counts the bytes and
    lines that flowed through, so the worker's report stays accurate without
    a second pass over the data.  ``buffer`` is the pump's spill buffer when
    there is one (its counters join the node's).
    """

    def __init__(self, chunks: Iterable[bytes], buffer: Optional[SpillBuffer] = None) -> None:
        self.chunks = chunks
        self.buffer = buffer
        self.bytes_in = 0
        self.lines_in = 0

    def iter_blocks(self) -> Iterator[bytes]:
        """The stream as line blocks, counted — the unit every mode consumes.

        Built on :func:`repro.engine.channels.iter_line_blocks`, so the
        split/carry (UTF-8-safe across chunk boundaries, final newline
        supplied) lives in one place.
        """

        def counted() -> Iterator[bytes]:
            for chunk in self.chunks:
                self.bytes_in += len(chunk)
                yield chunk

        for block in iter_line_blocks(counted()):
            self.lines_in += block.count(b"\n")
            yield block

    def lines(self) -> List[str]:
        """Materialize the whole stream as decoded lines (counted)."""
        return list(chain.from_iterable(map(decode_block, self.iter_blocks())))


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
    """Uniform, counted production API over one output port."""

    bytes_out = 0
    lines_out = 0

    def write_chunk(self, data: bytes, lines: Optional[int] = None) -> None:
        """Write one line block (``lines`` = its line count, when known)."""
        raise NotImplementedError

    def write(self, output: Union[bytes, List[str]]) -> None:
        """Write a kernel's output: a line block as is, a line list encoded."""
        if isinstance(output, bytes):
            self.write_chunk(output)
        else:
            for batch in iter_line_slices(output):
                self.write_chunk(encode_block(batch), len(batch))

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

    def write_chunk(self, data: bytes, lines: Optional[int] = None) -> None:
        if self.dead:
            return
        try:
            self.writer.write_chunk(data, lines)
        except BrokenPipeError:
            self.dead = True
            self.writer.abandon()

    def finish(self) -> None:
        if self.dead:
            return
        try:
            self.writer.close()
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
        self.bytes_out = 0
        self.lines_out = 0

    def write_chunk(self, data: bytes, lines: Optional[int] = None) -> None:
        self.bytes_out += len(data)
        self.lines_out += data.count(b"\n") if lines is None else lines
        self.buffer.append(data)

    def abandon(self) -> None:
        self.buffer.abandon()


def _open_sinks(plan: WorkerPlan) -> List[OutputSink]:
    sinks: List[OutputSink] = []
    for port in plan.outputs:
        if port.fd is not None:
            sinks.append(ChannelSink(port.fd, plan.streaming.chunk_size))
        else:
            sinks.append(ReportSink(plan.streaming))
    return sinks


# ---------------------------------------------------------------------------
# Streaming node bodies
# ---------------------------------------------------------------------------


def _concatenated_blocks(sources: List[InputSource]) -> Iterator[bytes]:
    """Concatenate the sources' streams, block-granular.

    Every block ends in a newline, so `cat a b` never merges a's last line
    with b's first — the line-level concatenation the interpreter performs.
    """
    return chain.from_iterable(source.iter_blocks() for source in sources)


def _run_chunk_mode(
    plan: WorkerPlan, sources: List[InputSource], sinks: List[OutputSink]
) -> List[SpillBuffer]:
    """Forward raw chunks input→output; returns any staging buffers used."""
    node = plan.node
    if isinstance(node, (CatNode, RelayNode)) and len(plan.outputs) != 1:
        # Parity with the interpreter's arity check: relays and cats produce
        # exactly one stream (command nodes replicate, these do not).
        raise RuntimeError(
            f"node {node.label()} produced 1 streams for "
            f"{len(plan.outputs)} output edges"
        )
    if isinstance(node, RelayNode) and node.blocking:
        # Blocking-eager semantics (Fig. 6): absorb the whole stream before
        # forwarding anything — through a bounded buffer, not a list.
        stage = SpillBuffer(plan.streaming.spill_threshold, plan.streaming.spill_directory)
        for chunk in _concatenated_blocks(sources):
            stage.append(chunk)
        stage.close()
        for chunk in stage:
            for sink in sinks:
                sink.write_chunk(chunk)
        return [stage]
    for chunk in _concatenated_blocks(sources):
        for sink in sinks:
            sink.write_chunk(chunk)
    return []


def _run_batch_mode(
    plan: WorkerPlan, sources: List[InputSource], sinks: List[OutputSink],
    registry: CommandRegistry, metrics: NodeMetrics,
) -> None:
    """Evaluate a stateless command (or fused chain) one line block at a time.

    The unit handed to the kernel is the block itself when the node has a
    block kernel (every member of a fused chain must), else its decoded lines.
    """
    node = plan.node
    kernel = block_kernel(node, registry)

    def evaluate(block: bytes) -> None:
        batch = [[block]] if kernel else decode_block(block)
        started = time.perf_counter()
        if kernel:
            pieces = list(kernel(batch)[0])  # a kernel may be lazy: force it here
        else:
            pieces = [evaluate_node(node, [batch], registry)[0]]
        metrics.compute_seconds += time.perf_counter() - started
        for piece in pieces:
            for sink in sinks:
                sink.write(piece)

    saw_input = False
    for block in sources[0].iter_blocks():
        saw_input = True
        evaluate(block)
    if not saw_input:
        # Preserve exact interpreter behaviour for empty streams even if a
        # command's annotation overstates its statelessness.
        evaluate(b"")


def _run_materialize_mode(
    plan: WorkerPlan, sources: List[InputSource], sinks: List[OutputSink],
    registry: CommandRegistry, metrics: NodeMetrics,
) -> None:
    """Whole-stream evaluation for nodes that need all their input at once."""
    node = plan.node
    host = host_command_available(node, plan.use_host_commands)
    kernel = None if host else block_kernel(node, registry)
    if kernel:
        streams = [list(source.iter_blocks()) for source in sources]
        started = time.perf_counter()
        outputs = kernel(streams)
        if isinstance(node, (CommandNode, FusedStage)) and len(sinks) > 1:
            # A command's one stream is replicated over its output edges.
            outputs = [list(outputs[0])] * len(sinks)
    else:
        inputs: List[Stream] = [source.lines() for source in sources]
        started = time.perf_counter()
        if host:
            metrics.host_command = True
            outputs = [_run_host_command(node, inputs)]
        else:
            outputs = evaluate_node(node, inputs, registry)
        outputs = [[lines] for lines in outputs]
    metrics.compute_seconds = time.perf_counter() - started
    # Mirror the interpreter's arity check: a mismatch must be a loud
    # error, not silently-empty downstream edges.
    if len(outputs) != len(plan.outputs):
        raise RuntimeError(
            f"node {node.label()} produced {len(outputs)} streams for "
            f"{len(plan.outputs)} output edges"
        )
    _write_outputs(sinks, outputs)


def _write_outputs(sinks: List[OutputSink], streams: list) -> None:
    """Write each stream to its sink and finish it, all sinks at once.

    One writer thread per extra sink (``os.write`` drops the GIL); the
    first failure is re-raised once every thread is done.
    """
    errors: List[BaseException] = []

    def drain(sink: OutputSink, stream) -> None:
        try:
            for piece in stream:
                sink.write(piece)
            sink.finish()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the node
            errors.append(exc)

    threads = [threading.Thread(target=drain, args=pair) for pair in zip(sinks[1:], streams[1:])]
    for thread in threads:
        thread.start()
    for pair in zip(sinks[:1], streams):
        drain(*pair)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# The node runner and its process wrapper
# ---------------------------------------------------------------------------


def run_node(plan: WorkerPlan, metrics: NodeMetrics) -> Dict[int, StoredStream]:
    """Evaluate the plan's node in this process; raises when it fails.

    Opens the sources and sinks, picks the mode, runs the node and finishes
    the sinks.  Returns every collected output edge (a port without ``fd``)
    as a stored stream; on failure the partial ones are abandoned, so no
    spill file outlives the error.  ``metrics`` is filled either way.
    """
    started = time.perf_counter()
    sources: List[InputSource] = []
    sinks: List[OutputSink] = []
    staging: List[SpillBuffer] = []
    try:
        sources = _open_sources(plan)
        sinks = _open_sinks(plan)
        # The standard registry is not shipped with a plan: re-created here.
        registry = standard_registry() if plan.registry is None else plan.registry
        mode = execution_mode(plan)
        if mode == "chunks":
            staging = _run_chunk_mode(plan, sources, sinks)
        elif mode == "batches":
            _run_batch_mode(plan, sources, sinks, registry, metrics)
        else:
            _run_materialize_mode(plan, sources, sinks, registry, metrics)
        for sink in sinks:
            sink.finish()
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
