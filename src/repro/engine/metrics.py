"""Per-node and per-run execution metrics.

The simulator estimates where time *would* go; the engine measures where it
*actually* goes.  Every worker reports how long it ran, how many bytes and
lines crossed its channels, and which OS process executed it, so the
evaluation harness can compute Fig. 7-style speedups from wall-clock time.
"""

from __future__ import annotations

import dataclasses
import operator
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping


@dataclass
class NodeMetrics:
    """Measurements reported by one worker process."""

    node_id: int
    label: str
    kind: str
    pid: int
    wall_seconds: float = 0.0
    #: ``wall_seconds`` less the time the node's sources spent reading and its
    #: sinks spent writing: what its kernel took, for every node kind.
    compute_seconds: float = 0.0
    #: True when this node ran on a reused pool worker instead of a fresh
    #: process.
    reused_worker: bool = False
    bytes_in: int = 0
    bytes_out: int = 0
    lines_in: int = 0
    lines_out: int = 0
    #: True when the node ran a real host binary instead of the Python
    #: command implementation.
    host_command: bool = False
    #: High-water mark (bytes) of the largest single in-memory stream buffer
    #: this node held — eager-pump windows and output accumulators.  Stays
    #: at or below the configured spill threshold when spilling is enabled.
    peak_buffered_bytes: int = 0
    #: Total bytes this node's buffers wrote to spill storage on disk.
    spilled_bytes: int = 0
    #: Number of chunks that went through spill storage.
    spill_events: int = 0

    @classmethod
    def of(cls, node) -> "NodeMetrics":
        """Zeroed metrics for ``node`` evaluated by the calling process."""
        return cls(node_id=node.node_id, label=node.label(), kind=node.kind, pid=os.getpid())

    def to_dict(self) -> Dict[str, Any]:
        """Stable flat-JSON schema: exactly the dataclass fields."""
        return {
            metrics_field.name: getattr(self, metrics_field.name)
            for metrics_field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NodeMetrics":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        field_names = {metrics_field.name for metrics_field in dataclasses.fields(cls)}
        unknown = set(payload) - field_names
        if unknown:
            raise ValueError(f"unknown NodeMetrics fields: {', '.join(sorted(unknown))}")
        return cls(**dict(payload))


@dataclass
class EngineMetrics:
    """Aggregate measurements for one engine run."""

    backend: str = "parallel"
    elapsed_seconds: float = 0.0
    nodes: List[NodeMetrics] = field(default_factory=list)
    #: OS processes created for this run (pool growth + dedicated forks).
    processes_spawned: int = 0
    #: Nodes served by an already-running pool worker (the amortization win).
    processes_reused: int = 0
    #: Seconds spent creating processes and dispatching plans this run.
    spawn_seconds: float = 0.0
    #: Stateless chains the ``fuse-stages`` pass collapsed in the executed
    #: graph (each eliminated ``len(chain) - 1`` processes and pipes).
    stages_fused: int = 0
    #: Commands eliminated as separate processes by those fusions.
    commands_fused: int = 0
    #: Non-blocking relay nodes bridged pipe-to-pipe instead of running as
    #: forwarder processes.
    relays_elided: int = 0
    #: Splits over a regular file run as byte ranges of it: no split worker,
    #: no ``cat`` feeding it, each consumer reads its own range.
    splits_ranged: int = 0
    #: Tail ``cat`` nodes run as ordered collection: every producer reports
    #: its branch and the scheduler concatenates them.
    cats_gathered: int = 0
    #: Tail aggregators run the same way: the scheduler applies the
    #: aggregator to the decoded branches, so no merge worker and no pumps.
    aggregators_gathered: int = 0
    #: Lanes the coordinator evaluated itself (inputs at rest, outputs
    #: collected): a worker fewer, with no plan pickled and no report.
    lanes_inline: int = 0
    #: Channel inputs read directly (no eager-pump thread, no extra copy).
    edges_direct: int = 0
    #: Channel inputs drained through eager pumps (deadlock-relevant fan-in).
    edges_buffered: int = 0
    #: Nodes executed on remote cluster workers (0 for single-host backends).
    remote_tasks: int = 0
    #: Tasks re-dispatched after a cluster worker was lost mid-run.
    requeued_tasks: int = 0
    #: Cluster workers registered when the run started (0 = not a cluster run).
    #: The fleet is shared across regions, not additive per region.
    cluster_workers: int = field(default=0, metadata={"merge": max})
    #: Execution attempts the resilience supervisor retried after a
    #: retryable failure (0 = every attempt succeeded first try).
    runs_retried: int = 0
    #: Supervised runs that exhausted retries and completed on the
    #: sequential interpreter instead (the degradation ladder's last rung).
    degraded_runs: int = 0

    @property
    def worker_count(self) -> int:
        """Number of distinct OS processes that executed nodes."""
        return len({node.pid for node in self.nodes})

    @property
    def total_bytes_moved(self) -> int:
        """Bytes that crossed engine channels (counted at the reader side)."""
        return sum(node.bytes_in for node in self.nodes)

    @property
    def total_node_seconds(self) -> float:
        """Sum of per-node wall times (the work the run parallelized)."""
        return sum(node.wall_seconds for node in self.nodes)

    @property
    def peak_buffered_bytes(self) -> int:
        """Largest single in-memory stream buffer held by any node.

        This is the engine's bounded-memory guarantee, observable: with
        spilling enabled it never exceeds the configured spill threshold.
        """
        return max((node.peak_buffered_bytes for node in self.nodes), default=0)

    @property
    def total_spilled_bytes(self) -> int:
        """Bytes the run's buffers spilled to disk (0 = fit in memory)."""
        return sum(node.spilled_bytes for node in self.nodes)

    @property
    def total_spill_events(self) -> int:
        """Chunks that went through spill storage across the whole run."""
        return sum(node.spill_events for node in self.nodes)

    @property
    def worker_utilization(self) -> float:
        """Mean fraction of the run each worker spent busy (0..1 per worker).

        Values near 1 mean workers ran the whole time; a width-w graph whose
        branches overlap perfectly approaches ``total_node_seconds /
        elapsed_seconds == w``, so the mean per-worker busy fraction is that
        ratio divided by the worker count.
        """
        if self.elapsed_seconds <= 0 or not self.nodes:
            return 0.0
        return self.total_node_seconds / self.elapsed_seconds / max(1, self.worker_count)

    @property
    def total_compute_seconds(self) -> float:
        """Sum of per-node kernel time (the rest of node wall is waiting on edges)."""
        return sum(node.compute_seconds for node in self.nodes)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON schema: every field, nodes as dicts, plus ``derived``.

        The ``derived`` sub-dict holds the read-only aggregate properties
        (``worker_count``, ``total_bytes_moved``…) for consumers that do not
        want to recompute them; :meth:`from_dict` ignores it, so the document
        round-trips.
        """
        payload: Dict[str, Any] = {}
        for metrics_field in dataclasses.fields(self):
            value = getattr(self, metrics_field.name)
            if metrics_field.name == "nodes":
                value = [node.to_dict() for node in value]
            payload[metrics_field.name] = value
        payload["derived"] = {
            "worker_count": self.worker_count,
            "total_bytes_moved": self.total_bytes_moved,
            "total_node_seconds": self.total_node_seconds,
            "total_compute_seconds": self.total_compute_seconds,
            "peak_buffered_bytes": self.peak_buffered_bytes,
            "total_spilled_bytes": self.total_spilled_bytes,
            "total_spill_events": self.total_spill_events,
            "worker_utilization": self.worker_utilization,
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineMetrics":
        """Inverse of :meth:`to_dict` (the ``derived`` block is recomputed)."""
        field_names = {metrics_field.name for metrics_field in dataclasses.fields(cls)}
        unknown = set(payload) - field_names - {"derived"}
        if unknown:
            raise ValueError(f"unknown EngineMetrics fields: {', '.join(sorted(unknown))}")
        values = {key: value for key, value in payload.items() if key in field_names}
        if "nodes" in values:
            values["nodes"] = [NodeMetrics.from_dict(node) for node in values["nodes"]]
        return cls(**values)

    def merge(self, other: "EngineMetrics") -> None:
        """Fold another run's metrics in (used for multi-region scripts)."""
        for metrics_field in dataclasses.fields(self):
            name = metrics_field.name
            mine = getattr(self, name)
            if not isinstance(mine, str):  # ``backend`` names the run; it does not add
                # iadd: numbers sum, the ``nodes`` list extends in place.
                combine = metrics_field.metadata.get("merge", operator.iadd)
                setattr(self, name, combine(mine, getattr(other, name)))

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI's --report)."""
        digest = (
            f"{len(self.nodes)} nodes on {self.worker_count} workers in "
            f"{self.elapsed_seconds * 1000:.1f} ms; "
            f"{self.total_bytes_moved} bytes moved; "
            f"utilization {self.worker_utilization:.0%}"
        )
        if self.processes_spawned or self.processes_reused:
            digest += (
                f"; {self.processes_spawned} spawned + "
                f"{self.processes_reused} reused "
                f"(spawn {self.spawn_seconds * 1000:.1f} ms)"
            )
        gathered = self.cats_gathered or self.aggregators_gathered
        if self.stages_fused or self.relays_elided or self.splits_ranged or gathered:
            digest += (
                f"; fused {self.commands_fused} commands into "
                f"{self.stages_fused} stages, elided {self.relays_elided} relays, "
                f"{self.splits_ranged} splits as file ranges, {self.cats_gathered} cats gathered, "
                f"{self.aggregators_gathered} aggregators gathered"
            )
        if self.lanes_inline:
            digest += f"; {self.lanes_inline} lanes inline"
        if self.cluster_workers:
            digest += (
                f"; {self.remote_tasks} tasks on {self.cluster_workers} "
                f"cluster workers"
            )
            if self.requeued_tasks:
                digest += f" ({self.requeued_tasks} requeued)"
        if self.runs_retried or self.degraded_runs:
            digest += (
                f"; {self.runs_retried} retried, "
                f"{self.degraded_runs} degraded to interpreter"
            )
        if self.total_spilled_bytes:
            digest += (
                f"; spilled {self.total_spilled_bytes} bytes to disk "
                f"({self.total_spill_events} chunks, "
                f"peak buffer {self.peak_buffered_bytes} bytes)"
            )
        return digest
