"""``pash-worker`` — the cluster's remote execution client.

A worker is a small state machine around one coordinator connection::

    connect (with retry) -> register -> welcome
        -> { receive TASK + input CHUNKs -> execute -> stream output CHUNKs
             + RESULT } ...
        -> SHUTDOWN (exit 0) | connection lost (exit 1)

Execution reuses the engine's worker body verbatim: every task's node is
read from its JSON form (a TASK without one ends the worker like a
malformed frame) into a :class:`~repro.engine.workers.WorkerPlan` whose
inputs are stored streams (each inbound CHUNK is appended to a
:class:`~repro.engine.channels.SpillBuffer` under the task's
``spill_threshold``, so a task's inputs never sit in memory whole) and
whose outputs are collected, and :func:`~repro.engine.workers.execute_plan` runs
it — same registry, same one node body, same counters, same span
recording — so a node produces the same bytes here as on the single-host
scheduler by construction.  The outputs come back as stored streams too,
which this module cuts into frames for the socket; the task's directory,
with whatever spilled, is removed when the task ends — the report itself
never carries bulk data.

A daemon thread heartbeats on the shared connection (the protocol socket
serializes sends), so a worker stuck in a long node evaluation still proves
liveness and only a *dead* worker trips the coordinator's requeue path.
"""

from __future__ import annotations

import argparse
import shutil
import socket
import sys
import tempfile
import threading
from queue import SimpleQueue
from typing import Any, Dict, List, Optional

from repro.api.config import StreamingConfig
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
from repro.dfg.json_form import node_from_json
from repro.engine.channels import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_SPILL_THRESHOLD,
    SpillBuffer,
    StoredStream,
)
from repro.engine.workers import InputPort, OutputPort, WorkerPlan, execute_plan
from repro.obs.tracer import TraceContext
from repro.resilience import fault as fault_injection
from repro.resilience.retry import RetryPolicy, retry_call
from repro.wire import ProtocolError, parse_address


class _PendingTask:
    """A TASK message plus its input edges, buffered as they stream in.

    The buffers spill into the task's own directory, which
    :func:`_execute_task` hands on to the node as its spill directory;
    :meth:`close` removes it with everything the task left there.
    """

    def __init__(self, message: Dict[str, Any]) -> None:
        self.message = message
        self.directory = tempfile.mkdtemp(prefix="pash-worker-spill-")
        self.spill_threshold = message.get("spill_threshold") or DEFAULT_SPILL_THRESHOLD
        self.inputs = {
            edge_id: SpillBuffer(self.spill_threshold, self.directory)
            for edge_id in message["inputs"]
        }
        self.open_edges = set(message["inputs"])

    def complete(self) -> bool:
        return not self.open_edges

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def _connect_with_retry(host: str, port: int, retry_seconds: float) -> socket.socket:
    """Connect to the coordinator, retrying while it is still coming up.

    Lets operators start workers *before* the coordinator listens (the CI
    smoke job does exactly that) instead of imposing a start order.  The
    shared :class:`RetryPolicy` spaces the attempts with exponential backoff
    and jitter, so a fleet of workers racing one coordinator spreads out
    instead of reconnecting in lockstep.
    """
    connect = lambda: socket.create_connection((host, port), timeout=10.0)
    if retry_seconds <= 0:
        return connect()
    policy = RetryPolicy(
        max_retries=None,
        base_seconds=0.05,
        max_seconds=1.0,
        deadline_seconds=retry_seconds,
    )
    return retry_call(connect, policy, retryable=(OSError,))


def _heartbeat_loop(channel: MessageSocket, interval: float, stop: threading.Event) -> None:
    while not stop.wait(max(0.05, interval)):
        if fault_injection.fire(fault_injection.CLUSTER_HEARTBEAT):
            continue  # drop-frame fault: the coordinator hears silence
        try:
            channel.send({"type": MSG_HEARTBEAT})
        except OSError:
            return


def _execute_task(channel: MessageSocket, task: _PendingTask) -> None:
    """Run one node plan and stream its outputs and report home."""
    message = task.message
    task_id = message["task_id"]
    chunk_size = message.get("chunk_size") or DEFAULT_CHUNK_SIZE
    trace, faults = message.get("trace"), message.get("faults")
    try:
        plan = WorkerPlan(
            node=node_from_json(message["node"]),
            inputs=[
                InputPort(edge_id, stream=task.inputs[edge_id].store())
                for edge_id in message["inputs"]
            ],
            outputs=[OutputPort(edge_id) for edge_id in message["outputs"]],
            registry=None,  # re-created in-process: the standard registry
            use_host_commands=bool(message.get("use_host_commands")),
            streaming=StreamingConfig(chunk_size, task.spill_threshold, task.directory),
            run_token=task_id,
            trace=TraceContext(trace) if trace is not None else None,
            faults=fault_injection.FaultPlan.from_dict(faults) if faults is not None else None,
        )
        box: SimpleQueue = SimpleQueue()
        execute_plan(plan, box)  # reports exactly once, never raises
        report = box.get()
        outputs = report.pop("outputs", {})
        report["spans"] = [span.to_dict() for span in report.get("spans", ())]
        if not report.get("error"):
            for edge_id in message["outputs"]:
                stored = outputs.get(edge_id, StoredStream())
                send_edge_stream(channel, task_id, edge_id, stored.blocks(chunk_size))
        channel.send({"type": MSG_RESULT, "task_id": task_id, "report": report})
    finally:
        task.close()


def run_worker(address: str, retry_seconds: float = 10.0) -> int:
    """The worker state machine; returns the process exit code."""
    # Chaos tests arm fault points inside separately exec'd workers through
    # the PASH_FAULTS environment variable (see repro.resilience.fault).
    fault_injection.install_from_environ()
    host, port = parse_address(address)
    try:
        sock = _connect_with_retry(host, port, retry_seconds)
    except OSError as exc:
        print(f"pash-worker: cannot reach coordinator {address}: {exc}", file=sys.stderr)
        return 1
    channel = MessageSocket(sock)
    stop = threading.Event()
    pending: Dict[int, _PendingTask] = {}
    try:
        channel.send({"type": MSG_REGISTER, "version": PROTOCOL_VERSION})
        welcome = channel.recv()
        if welcome is None or welcome.get("type") != MSG_WELCOME:
            print("pash-worker: coordinator refused registration", file=sys.stderr)
            return 1
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(channel, float(welcome.get("heartbeat_interval", 0.5)), stop),
            daemon=True,
        )
        heartbeat.start()

        while True:
            try:
                message = channel.recv()
            except (ProtocolError, OSError):
                return 1
            if message is None:
                return 1  # coordinator vanished without SHUTDOWN
            kind = message["type"]
            if kind == MSG_SHUTDOWN:
                return 0
            if kind == MSG_TASK:
                task = _PendingTask(message)
                if task.complete():  # no input edges: run immediately
                    _execute_task(channel, task)
                else:
                    pending[message["task_id"]] = task
                continue
            if kind == MSG_CHUNK:
                task = pending.get(message["task_id"])
                if task is not None:
                    task.inputs[message["edge_id"]].append(message["data"])
                continue
            if kind == MSG_EDGE_END:
                task = pending.get(message["task_id"])
                if task is None:
                    continue
                task.open_edges.discard(message["edge_id"])
                if task.complete():
                    del pending[message["task_id"]]
                    _execute_task(channel, task)
                continue
            # Unknown message types are ignored for forward compatibility.
    except (OSError, ProtocolError, ValueError) as exc:  # ValueError: a TASK not in its JSON form
        print(f"pash-worker: connection error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop.set()
        channel.close()
        for task in pending.values():
            task.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pash-worker",
        description="Execute PaSh dataflow nodes on behalf of a cluster coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to register with",
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=10.0,
        metavar="S",
        help="keep retrying the initial connection for this long "
        "(lets workers start before the coordinator listens; default 10)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        parse_address(arguments.connect)
    except ValueError as exc:
        print(f"pash-worker: {exc}", file=sys.stderr)
        return 2
    return run_worker(arguments.connect, retry_seconds=arguments.retry_seconds)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
