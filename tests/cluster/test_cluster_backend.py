"""Cluster tier unit tests: sharding policy, edge store, backend semantics."""

import os

import pytest

from repro import api, engine
from repro.cluster.coordinator import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterOptions,
    EdgeStore,
    remote_eligible,
)
from repro.api import PashConfig, StreamingConfig
from repro.dfg.builder import DFGBuilder
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, SplitNode
from repro.engine.channels import StoredStream
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

FILES = {"a.txt": ["banana", "apple foo"], "b.txt": ["cherry foo", "date"]}
SCRIPT = "cat a.txt b.txt | grep foo | sort > out.txt"


def env():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )


# ---------------------------------------------------------------------------
# Sharding policy
# ---------------------------------------------------------------------------


def test_sharding_policy_matches_statelessness():
    graph = DFGBuilder().build_from_script(SCRIPT)
    verdicts = {node.label(): remote_eligible(node) for node in graph.nodes.values()}
    assert verdicts["grep foo"] is True  # stateless: shards across workers
    assert verdicts["sort"] is False  # needs the whole stream: stays local
    assert verdicts["cat"] is False  # fan-in point: stays local


def test_structural_nodes_stay_on_coordinator():
    assert not remote_eligible(SplitNode(node_id=1))
    assert not remote_eligible(CatNode(node_id=2))
    assert not remote_eligible(AggregatorNode(node_id=3, aggregator="sort -m"))


# ---------------------------------------------------------------------------
# EdgeStore
# ---------------------------------------------------------------------------


def test_edge_store_memory_roundtrip(tmp_path):
    store = EdgeStore(StreamingConfig(spill_directory=str(tmp_path)))
    try:
        store.put_lines(1, ["alpha", "beta"])
        assert store.has(1)
        assert store.lines(1) == ["alpha", "beta"]
        assert store.get(1) == StoredStream(b"alpha\nbeta\n")  # nothing on disk
    finally:
        store.close()


def test_edge_store_spills_past_threshold(tmp_path):
    store = EdgeStore(StreamingConfig(spill_threshold=8, spill_directory=str(tmp_path)))
    try:
        lines = [f"line {i}" for i in range(100)]
        store.put_lines(1, lines)
        stored = store.get(1)
        assert stored.data == b"" and os.path.dirname(stored.path) == store.directory
        assert store.lines(1) == lines
        assert b"".join(stored.blocks(7)) == "".join(line + "\n" for line in lines).encode()
    finally:
        store.close()


def test_edge_store_spills_on_bytes_not_characters(tmp_path):
    """3-byte characters: 40 chars a line is 121 bytes, not 41."""
    lines = ["€" * 40] * 3
    characters = sum(len(line) + 1 for line in lines)
    size = len("".join(line + "\n" for line in lines).encode())
    assert characters < 200 < size
    store = EdgeStore(StreamingConfig(spill_threshold=200, spill_directory=str(tmp_path)))
    try:
        store.put_lines(1, lines)
        assert store.get(1).path is not None  # counted in bytes, it does not fit
        assert store.lines(1) == lines
    finally:
        store.close()


def test_edge_buffer_commit_and_abandon(tmp_path):
    """An inbound edge is invisible until put, and an abandoned one leaves nothing."""
    store = EdgeStore(StreamingConfig(spill_threshold=4, spill_directory=str(tmp_path)))
    try:
        inbound = store.buffer()
        inbound.append(b"one\ntwo\n")  # beyond threshold: goes to a spill file
        assert not store.has(5) and len(os.listdir(store.directory)) == 1
        store.put(5, inbound.store())
        assert store.lines(5) == ["one", "two"]

        abandoned = store.buffer()
        abandoned.append(b"partial\n")
        abandoned.abandon()
        assert not store.has(6)
        assert len(os.listdir(store.directory)) == 1  # only edge 5's file
    finally:
        store.close()


def test_store_directory_removed_on_close(tmp_path):
    store = EdgeStore(StreamingConfig(spill_threshold=0, spill_directory=str(tmp_path / "new")))
    directory = store.directory  # the missing spill_directory was created for it
    assert os.path.isdir(directory)
    store.put_lines(1, ["spilled"])
    assert os.listdir(directory)
    store.close()
    assert not os.path.exists(directory)


# ---------------------------------------------------------------------------
# Backend semantics
# ---------------------------------------------------------------------------


def test_cluster_registered_as_backend():
    assert "cluster" in engine.available_backends()
    config = PashConfig(cluster=ClusterOptions(workers=3))
    backend = engine.create_backend("cluster", config=config)
    assert isinstance(backend, ClusterBackend)
    assert ClusterCoordinator(config=backend.config).options.workers == 3
    with pytest.raises(TypeError):  # the fleet is the config's section, not keywords
        engine.create_backend("cluster", workers=3)


def test_cluster_run_matches_interpreter_and_uses_workers():
    graph = DFGBuilder().build_from_script(SCRIPT)
    expected = engine.run(graph, backend="interpreter", environment=env())
    graph = DFGBuilder().build_from_script(SCRIPT)
    result = engine.run(graph, backend="cluster", environment=env())
    assert result.output_of("out.txt") == expected.output_of("out.txt")
    assert result.backend == "cluster"
    assert result.metrics.cluster_workers == 2
    assert result.metrics.remote_tasks >= 1
    remote_pids = {node.pid for node in result.metrics.nodes} - {os.getpid()}
    assert remote_pids


def test_remote_command_error_fails_cleanly():
    graph = DFGBuilder().build_from_script("cat a.txt | grep [ | sort")
    with pytest.raises(ExecutionError):
        engine.run(graph, backend="cluster", environment=env())


def test_startup_timeout_is_a_clean_error():
    coordinator = ClusterCoordinator(
        ClusterOptions(workers=1, connect="127.0.0.1:0", register_timeout_seconds=0.5)
    )
    with pytest.raises(ExecutionError, match="timed out"):
        coordinator.start()


def test_a_stale_worker_is_refused_at_registration():
    import socket

    from repro.cluster.protocol import (
        MSG_REGISTER,
        MSG_WELCOME,
        PROTOCOL_VERSION,
    )
    from repro.wire import recv_frame, send_frame

    coordinator = ClusterCoordinator(ClusterOptions(heartbeat_interval=0.25))
    replies = []
    try:
        for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION):
            worker, served = socket.socketpair()
            with worker:
                send_frame(worker, {"type": MSG_REGISTER, "version": version})
                coordinator._register(served)
                replies.append(recv_frame(worker))
    finally:
        coordinator.shutdown()
    assert replies == [None, {"type": MSG_WELCOME, "heartbeat_interval": 0.25}]
    assert len(coordinator.workers) == 1


def test_malformed_connect_address_is_a_clean_error():
    coordinator = ClusterCoordinator(ClusterOptions(connect="nonsense"))
    with pytest.raises(ExecutionError, match="HOST:PORT"):
        coordinator.start()


def test_no_worker_processes_leak():
    backend = ClusterBackend()
    graph = DFGBuilder().build_from_script(SCRIPT)
    backend.execute(graph, env())
    # ClusterBackend shuts its per-run coordinator down unconditionally, so
    # any pash-worker it spawned must be gone.
    alive = [
        pid
        for pid in os.listdir("/proc")
        if pid.isdigit()
        and _cmdline_mentions_worker(pid)
    ]
    assert alive == []


def _cmdline_mentions_worker(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro.cluster.worker" in handle.read()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Stored streams end to end: every edge on disk, bytes not characters
# ---------------------------------------------------------------------------

WIDE_SCRIPT = "cat a.txt b.txt | tr a-z A-Z | grep O | sort > out.txt"


def wide_env():
    files = {
        "a.txt": [f"é row {index} foo" for index in range(300)],
        "b.txt": [f"ü row {index} boo" for index in range(300)],
    }
    return ExecutionEnvironment(filesystem=VirtualFileSystem(files))


def test_cluster_run_with_every_edge_on_disk_matches_interpreter(tmp_path):
    """spill_threshold=16: seeds, remote inputs and outputs, local outputs all
    take the file path — and the run leaves nothing in the spill directory."""
    config = PashConfig.paper_default(
        2,
        backend="cluster",
        streaming=StreamingConfig(chunk_size=64, spill_threshold=16, spill_directory=str(tmp_path)),
    )
    compiled = api.Pash.compile(WIDE_SCRIPT, config)
    expected = compiled.execute(backend="interpreter", environment=wide_env())
    result = compiled.execute(backend="cluster", environment=wide_env())
    assert result.output_of("out.txt") == expected.output_of("out.txt")
    assert result.output_of("out.txt")
    assert result.metrics.remote_tasks >= 2
    assert result.metrics.total_spilled_bytes > 0
    assert all(node.peak_buffered_bytes <= 16 for node in result.metrics.nodes)
    assert os.listdir(tmp_path) == []


def test_coordinator_local_nodes_report_encoded_bytes():
    """A local node's metrics are the engine's: bytes, compute time, its pid."""
    lines = ["é" * 30, "ü" * 30, "a"]
    encoded = len("".join(line + "\n" for line in lines).encode())
    assert encoded > sum(len(line) + 1 for line in lines)
    graph = DFGBuilder().build_from_script("cat in.txt | sort > out.txt")
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": lines}))
    one_worker = PashConfig(cluster=ClusterOptions(workers=1))
    result = engine.run(graph, backend="cluster", environment=environment, config=one_worker)
    assert result.output_of("out.txt") == sorted(lines)
    sort = next(node for node in result.metrics.nodes if node.label == "sort")
    assert sort.pid == os.getpid()
    assert (sort.bytes_in, sort.bytes_out) == (encoded, encoded)
    assert (sort.lines_in, sort.lines_out) == (3, 3)
    assert 0 < sort.compute_seconds <= sort.wall_seconds


def test_disk_full_on_a_coordinator_edge_is_resource_exhausted(tmp_path):
    from repro.resilience import fault
    from repro.resilience.errors import ResourceExhausted
    from repro.resilience.fault import SPILL_WRITE, FaultPlan, FaultSpec

    config = PashConfig(
        cluster=ClusterOptions(workers=1),
        streaming=StreamingConfig(spill_threshold=1, spill_directory=str(tmp_path)),
    )
    graph = DFGBuilder().build_from_script(SCRIPT)
    previous = fault.active()
    # The seeds get through; the first node output the coordinator stores does not.
    fault.install(FaultPlan([FaultSpec(SPILL_WRITE, after_bytes=60, max_fires=0)]))
    try:
        with pytest.raises(ResourceExhausted) as caught:
            ClusterBackend(config).execute(graph, env())
    finally:
        fault.install(previous)
    assert caught.value.operation == "spill:write"
    assert os.listdir(tmp_path) == []  # the run directory went with the run


class _RecordingChannel:
    def __init__(self):
        self.sent = []

    def send(self, message, data=None):
        self.sent.append(message if data is None else dict(message, data=data))

    def close(self):
        pass


def test_a_lost_workers_partial_output_is_never_visible(tmp_path):
    """At-most-once commit: chunks of a lost attempt are dropped with their file."""
    from repro.cluster.coordinator import ClusterWorkerHandle, _GraphRun
    from repro.cluster.protocol import MSG_CHUNK
    from repro.engine.metrics import EngineMetrics

    config = PashConfig(
        streaming=StreamingConfig(spill_threshold=4, spill_directory=str(tmp_path))
    )
    coordinator = ClusterCoordinator(config=config)
    graph = DFGBuilder().build_from_script("cat a.txt | grep foo")
    metrics = EngineMetrics(backend="cluster")
    run = _GraphRun(coordinator, graph, env(), metrics)
    try:
        run._seed()
        while run.ready_local:
            run._run_local(run.ready_local.popleft())
        node_id = run.ready_remote.popleft()
        (edge_id,) = graph.node(node_id).outputs
        handle = ClusterWorkerHandle(worker_id=1, channel=_RecordingChannel())
        coordinator.workers.append(handle)
        run._dispatch(handle, node_id, None)
        before = set(os.listdir(run.store.directory))
        chunk = {"type": MSG_CHUNK, "task_id": node_id, "edge_id": edge_id, "data": b"apple foo\n"}
        run._handle_message(handle, chunk)
        assert len(set(os.listdir(run.store.directory)) - before) == 1  # spilled, uncommitted
        assert not run.store.has(edge_id)

        run._worker_lost(handle)
        assert set(os.listdir(run.store.directory)) == before
        assert not run.store.has(edge_id) and node_id not in run.inflight
        assert list(run.ready_remote) == [node_id] and metrics.requeued_tasks == 1
        run._handle_message(handle, chunk)  # stale traffic from the dead attempt
        assert not run.store.has(edge_id)
        assert set(os.listdir(run.store.directory)) == before
    finally:
        run.close()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "report",
    [
        {"error": None},  # no metrics
        {"error": None, "metrics": {"node_id": 1}, "spans": [{"category": "worker"}]},  # a span without a name
        {"error": None, "metrics": {"no_such_field": 1}},
        ["not", "a", "report"],
        None,
    ],
    ids=["no-metrics", "nameless-span", "unknown-metric", "a-list", "missing"],
)
def test_a_malformed_result_fails_the_run_naming_the_worker(tmp_path, report):
    """A RESULT is a peer's JSON: a shape the coordinator cannot read is the
    worker's failure, with the task abandoned as on a reported error."""
    from repro.cluster.coordinator import ClusterWorkerHandle, _GraphRun
    from repro.cluster.protocol import MSG_CHUNK, MSG_RESULT
    from repro.engine.metrics import EngineMetrics

    config = PashConfig(
        streaming=StreamingConfig(spill_threshold=4, spill_directory=str(tmp_path))
    )
    coordinator = ClusterCoordinator(config=config)
    graph = DFGBuilder().build_from_script("cat a.txt | grep foo")
    metrics = EngineMetrics(backend="cluster")
    run = _GraphRun(coordinator, graph, env(), metrics)
    try:
        run._seed()
        while run.ready_local:
            run._run_local(run.ready_local.popleft())
        node_id = run.ready_remote.popleft()
        (edge_id,) = graph.node(node_id).outputs
        handle = ClusterWorkerHandle(worker_id=7, channel=_RecordingChannel())
        coordinator.workers.append(handle)
        run._dispatch(handle, node_id, None)
        before = set(os.listdir(run.store.directory))
        run._handle_message(
            handle, {"type": MSG_CHUNK, "task_id": node_id, "edge_id": edge_id, "data": b"apple foo\n"}
        )
        message = {"type": MSG_RESULT, "task_id": node_id}
        if report is not None:
            message["report"] = report
        expected = r"cluster worker 7 failed on \S+: malformed RESULT \((Attribute|Key|Type|Value)Error: "
        with pytest.raises(ExecutionError, match=expected):
            run._handle_message(handle, message)
        assert node_id not in run.inflight and handle.task is None
        assert not run.store.has(edge_id)  # nothing of the attempt was committed
        assert set(os.listdir(run.store.directory)) == before  # its spilled chunk went with it
        assert metrics.remote_tasks == 0 and metrics.nodes == []
    finally:
        run.close()
    assert os.listdir(tmp_path) == []


def test_worker_buffers_task_inputs_in_bounded_memory():
    """Inbound CHUNKs go to a spill buffer under the task's threshold."""
    from repro.cluster.protocol import MSG_CHUNK, MSG_EDGE_END, MSG_RESULT, MSG_TASK
    from repro.cluster.worker import _execute_task, _PendingTask
    from repro.dfg.json_form import node_to_json

    graph = DFGBuilder().build_from_script("cat a.txt | grep foo")
    node = next(node for node in graph.nodes.values() if node.label() == "grep foo")
    lines = [f"row {index} {'foo' if index % 3 else 'bar'} é" for index in range(400)]
    payload = "".join(line + "\n" for line in lines).encode()
    task = _PendingTask(
        {
            "type": MSG_TASK,
            "task_id": 9,
            "node": node_to_json(node),
            "inputs": list(node.inputs),
            "outputs": list(node.outputs),
            "chunk_size": 16,
            "spill_threshold": 64,
        }
    )
    (edge_in,), (edge_out,) = node.inputs, node.outputs
    buffer = task.inputs[edge_in]
    for start in range(0, len(payload), 16):
        buffer.append(payload[start : start + 16])
        assert buffer.buffered_bytes <= 64
    assert buffer.peak_buffered_bytes <= 64 < len(payload)
    assert buffer.spilled_bytes == len(payload) and buffer.buffered_bytes == 0
    task.open_edges.discard(edge_in)
    assert task.complete() and os.listdir(task.directory)

    channel = _RecordingChannel()
    _execute_task(channel, task)
    kinds = [message["type"] for message in channel.sent]
    assert kinds[-2:] == [MSG_EDGE_END, MSG_RESULT] and set(kinds[:-2]) == {MSG_CHUNK}
    received = b"".join(m["data"] for m in channel.sent if m["type"] == MSG_CHUNK)
    assert received.decode().splitlines() == [line for line in lines if "foo" in line]
    assert all(len(m["data"]) <= 16 for m in channel.sent if m["type"] == MSG_CHUNK)
    report = channel.sent[-1]["report"]
    assert report["error"] is None and "outputs" not in report
    assert report["metrics"]["bytes_in"] == len(payload)
    assert report["metrics"]["peak_buffered_bytes"] <= 64
    assert not os.path.exists(task.directory)
