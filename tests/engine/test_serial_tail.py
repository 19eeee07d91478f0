"""The parallel run's serial tail: what the driver does besides the lanes.

Each report's collected streams are decoded the moment the report lands, so
a fast lane's branch is decoded while a slow lane still works.  And one lane
is the driver's own: ``F0.txt -> lane`` runs on a pool worker, while the last
lane, ``F1.txt -> lane`` (a file in, collected out), is evaluated by the
coordinator between dispatch and collection and landed like a report.  These
tests pin the failure paths of both — the inline lane failing after the
worker's branch arrived, the worker failing while the coordinator computes,
a branch that does not decode, a worker killed mid-run — to the error text,
the spill directory and the pool's bookkeeping a run had when every lane had
a worker; the inline call's hygiene (no fault plan outlives it, no
descriptor it does not own is closed); and the tail's spans.

The worker's lane is made slow, and made to fail, by the fault plane: its
output is larger than an inline hand-off, so its writes to the spill file
pass the ``spill:write`` point, which the coordinator's small output never
reaches.  The coordinator's lane is made slow by wrapping ``run_node``.
"""

import gc
import os
import pathlib
import sys
import time

import pytest

from repro.api import PashConfig, ResilienceConfig, StreamingConfig
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, RelayNode
from repro.engine import scheduler as scheduler_module
from repro.engine.channels import StoredStream
from repro.engine.pool import WorkerPool
from repro.engine.scheduler import ParallelScheduler
from repro.engine.workers import INLINE_HANDOFF_BYTES
from repro.obs.export import chrome_trace_document
from repro.obs.tracer import Tracer
from repro.resilience import fault as fault_injection
from repro.resilience.fault import CHANNEL_READ, SPILL_WRITE, FaultPlan, FaultSpec
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))
from check_trace import check_trace  # noqa: E402

#: The worker lane's output: well past the inline hand-off, so it is a spill file.
SLOW_LINES = [b"slow line %06d of the first file\n" % index for index in range(12_000)]
assert sum(map(len, SLOW_LINES)) > 4 * INLINE_HANDOFF_BYTES
#: Holds the worker's lane at its first spill write, long after the coordinator's lane landed.
STALL = FaultSpec(point=SPILL_WRITE, mode="delay", delay_seconds=0.4, max_fires=1)


def two_lanes(lane, tail, inline_lane=None):
    """``F0.txt -> lane`` (a worker's) and ``F1.txt -> inline_lane or lane``
    (the coordinator's), both gathered by ``tail`` into out.txt."""
    graph = DataflowGraph()
    gather = graph.add_node(tail)
    for name, make in (("F0.txt", lane), ("F1.txt", inline_lane or lane)):
        node = graph.add_node(make())
        graph.attach_input(node, graph.add_edge(kind=EdgeKind.FILE, name=name))
        graph.connect(node, gather)
    graph.attach_output(gather, graph.add_edge(kind=EdgeKind.FILE, name="out.txt"))
    return graph


def slow_inline(monkeypatch, seconds, before=None):
    """Hold the coordinator's lane ``seconds`` before it runs (``before`` is
    called first, inside the call); returns the list of plans it ran."""
    ran = []
    run_node = scheduler_module.run_node

    def held(plan, metrics):
        ran.append(plan)
        if before is not None:
            before(plan)
        time.sleep(seconds)
        return run_node(plan, metrics)

    monkeypatch.setattr(scheduler_module, "run_node", held)
    return ran


@pytest.fixture()
def rig(tmp_path, monkeypatch):
    """A private pool, a spill directory to inspect, and a log of every decode."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F0.txt").write_bytes(b"".join(SLOW_LINES))
    decoded = []
    lines = StoredStream.lines

    def logged(self, *args):
        decoded.append(self)
        return lines(self, *args)

    monkeypatch.setattr(StoredStream, "lines", logged)
    pool = WorkerPool()
    spill = tmp_path / "spill"

    def scheduler(*faults, tracer=None):
        config = PashConfig(
            width=2,
            report_timeout_seconds=60,
            streaming=StreamingConfig(spill_directory=str(spill)),
            resilience=ResilienceConfig(faults=faults),
        )
        environment = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
        return ParallelScheduler(environment, config, pool=pool, tracer=tracer)

    yield scheduler, pool, spill, decoded
    pool.shutdown()


def warm(scheduler, pool, tmp_path):
    """One clean run, so the pool holds what a width-2 run leaves: one idle worker."""
    (tmp_path / "F1.txt").write_bytes(b"b\na\n")
    result, metrics = scheduler().execute(two_lanes(lambda: CommandNode(name="sort"), CatNode()))
    assert metrics.lanes_inline == 1 and len({node.pid for node in metrics.nodes}) == 2
    assert occupancy(pool) == (1, 1, 0)
    return occupancy(pool)


def occupancy(pool):
    """(workers, idle, busy)."""
    stats = pool.stats()
    return stats["workers"], stats["idle"], stats["busy"]


def test_the_inline_lane_failing_after_the_worker_reported_raises_its_failure(
    rig, tmp_path, monkeypatch
):
    scheduler, pool, spill, decoded = rig
    before = warm(scheduler, pool, tmp_path)
    decoded.clear()
    # The worker's branch (a spill file) is reported while the coordinator's
    # lane is held, and only then does that lane fail.
    slow_inline(monkeypatch, 0.5)
    graph = two_lanes(
        lambda: CommandNode(name="tr", arguments=["a-z", "A-Z"]), CatNode(),
        inline_lane=lambda: CommandNode(name="head", arguments=["-n", "many"]),
    )
    with pytest.raises(ExecutionError) as excinfo:
        scheduler().execute(graph)
    assert str(excinfo.value).startswith("1 worker(s) failed: head -n many: ")
    assert decoded == []  # the run is failing: the worker's file is removed, not decoded
    assert os.listdir(spill) == []
    assert occupancy(pool) == before


def test_a_worker_failing_while_the_coordinator_computes_raises_the_failure(
    rig, tmp_path, monkeypatch
):
    scheduler, pool, spill, decoded = rig
    before = warm(scheduler, pool, tmp_path)
    decoded.clear()
    slow_inline(monkeypatch, 0.5)
    fail = FaultSpec(point=SPILL_WRITE, mode="error", errno_name="EIO", after_bytes=2 * INLINE_HANDOFF_BYTES)
    graph = two_lanes(lambda: CommandNode(name="tr", arguments=["a-z", "A-Z"]), CatNode())
    with pytest.raises(ExecutionError) as excinfo:
        scheduler(fail).execute(graph)
    assert str(excinfo.value).startswith("1 worker(s) failed: tr a-z A-Z: ")
    assert "injected fault at spill:write" in str(excinfo.value)
    assert len(decoded) == 1  # the coordinator's branch, landed before the failure came in
    assert os.listdir(spill) == []
    assert occupancy(pool) == before


def test_a_worker_killed_mid_run_is_discarded_and_its_file_removed(rig, tmp_path, monkeypatch):
    scheduler, pool, spill, decoded = rig
    warm(scheduler, pool, tmp_path)
    decoded.clear()
    slow_inline(monkeypatch, 0.3)
    kill = FaultSpec(point=SPILL_WRITE, mode="kill", after_bytes=2 * INLINE_HANDOFF_BYTES)
    graph = two_lanes(lambda: CommandNode(name="sort"), AggregatorNode(aggregator="merge_sort"))
    with pytest.raises(ExecutionError) as excinfo:
        scheduler(STALL, kill).execute(graph)
    assert str(excinfo.value) == "worker(s) died without reporting: sort (exit code -9)"
    assert len(decoded) == 1  # the coordinator's branch
    assert os.listdir(spill) == []
    # A run whose collection fails drops every worker it dispatched, as it
    # always has; the coordinator's lane had none.
    assert occupancy(pool) == (0, 0, 0)


def test_no_fault_plan_outlives_the_inline_call(rig, tmp_path, monkeypatch):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F1.txt").write_bytes(b"b\na\n")
    armed = FaultSpec(point=CHANNEL_READ, mode="delay", delay_seconds=0.0, max_fires=0)
    during = []
    slow_inline(monkeypatch, 0.0, before=lambda plan: during.append(fault_injection.active()))
    own = FaultPlan([FaultSpec(point=SPILL_WRITE, mode="delay", delay_seconds=0.0)], seed=5)
    fault_injection.install(own)
    try:
        for inline_lane in (None, lambda: CommandNode(name="head", arguments=["-n", "many"])):
            during.clear()
            run = scheduler(armed)
            graph = two_lanes(lambda: CommandNode(name="sort"), CatNode(), inline_lane=inline_lane)
            try:
                run.execute(graph)
            except ExecutionError:
                assert inline_lane is not None
            (installed,) = during
            # A pristine copy of the run's worker-side plan, not the coordinator's.
            assert installed is not own and installed is not run._faults
            assert installed.faults == (armed,)
            assert fault_injection.active() is own
        # No plan at all: nothing is installed, and the coordinator's stays.
        during.clear()
        scheduler().execute(two_lanes(lambda: CommandNode(name="sort"), CatNode()))
        assert during == [own] and fault_injection.active() is own
    finally:
        fault_injection.clear()


def test_the_coordinator_closes_no_descriptor_it_does_not_own(rig, tmp_path, monkeypatch):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F1.txt").write_bytes(b"".join(SLOW_LINES))  # both lanes spill their branch
    closed = []
    real_close, run_inline = os.close, ParallelScheduler._run_inline

    def watched(self, plan):
        # No collection in the window: the finalizer of an earlier test's dead
        # ``multiprocessing`` process closes its pipe fds through ``os.close``.
        gc.disable()
        monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
        try:
            return run_inline(self, plan)
        finally:
            monkeypatch.setattr(os, "close", real_close)
            gc.enable()

    monkeypatch.setattr(ParallelScheduler, "_run_inline", watched)
    graph = two_lanes(lambda: CommandNode(name="tr", arguments=["a-z", "A-Z"]), CatNode())
    # A third branch with a channel in it: the run has descriptors that are
    # the workers' to close, never the coordinator's lane's.
    (gather,) = [node for node in graph.nodes.values() if isinstance(node, CatNode)]
    first = graph.add_node(CommandNode(name="tr", arguments=["a-z", "A-Z"]))
    graph.attach_input(first, graph.add_edge(kind=EdgeKind.FILE, name="F0.txt"))
    second = graph.add_node(CommandNode(name="grep", arguments=["LINE 0000"]))
    graph.connect(first, second)
    graph.connect(second, gather)
    held_read, held_write = os.pipe()
    try:
        result, metrics = scheduler().execute(graph)
        assert metrics.lanes_inline == 1 and metrics.edges_direct == 1
        assert len(result.files["out.txt"]) == 2 * len(SLOW_LINES) + 100
        assert closed == []  # its files are closed as files; no fd number is closed
        os.fstat(held_read), os.fstat(held_write)  # still ours, still open
    finally:
        os.close(held_read)
        os.close(held_write)


def test_the_tail_is_named_in_the_trace(rig, tmp_path):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F1.txt").write_bytes(b"b\na\n")
    tracer = Tracer()
    graph = two_lanes(lambda: CommandNode(name="sort"), AggregatorNode(aggregator="merge_sort"))
    result, metrics = scheduler(tracer=tracer).execute(graph)
    assert result.files["out.txt"] == sorted(["a", "b"] + [line[:-1].decode() for line in SLOW_LINES])
    assert metrics.aggregators_gathered == 1
    spans = {span.name: span for span in tracer.spans}
    run = spans["engine:run"]
    for phase in ("scheduler:collect", "scheduler:gather", "scheduler:deliver"):
        assert spans[phase].parent_id == run.span_id, phase
    assert spans["scheduler:gather"].attributes["node"] == "agg[merge_sort] x2"
    # One lane in a worker, one in the coordinator's own pid, both under engine:run.
    lanes = [span for span in tracer.spans if span.name == "node:sort"]
    assert [span.parent_id for span in lanes] == [run.span_id] * 2
    assert sorted(span.pid == run.pid for span in lanes) == [False, True]
    assert check_trace(chrome_trace_document(tracer.spans)) == len(tracer.spans)


@pytest.mark.parametrize(
    "script, files",
    [
        ("cat F0.txt F1.txt | tr A-Z a-z | sort > out.txt", ("F0.txt", "F1.txt")),
        ("cat F.txt | tr A-Z a-z | grep -v 7 | cut -d ' ' -f 1-4 > out.txt", ("F.txt",)),
    ],
)
def test_the_bench_shapes_dispatch_one_plan_to_a_one_worker_pool(script, files, tmp_path, monkeypatch):
    """pash-bench's ``sort_cpu`` and ``grep_stream`` at width 2: one lane on
    the pool, one in the driver, and a pool of one worker."""
    from repro.api import Pash

    monkeypatch.chdir(tmp_path)
    for name in files:
        (tmp_path / name).write_text("".join(f"Word{i} THE {i % 9} line\n" for i in range(400)))
    tracer = Tracer()
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
    with Pash(PashConfig.paper_default(2, backend="parallel"), tracer=tracer) as session:
        result = session.run(script, environment=environment)
        pool = session._pool
        assert (pool.stats()["workers"], pool.stats()["tasks_dispatched"]) == (1, 1)
    metrics = result.metrics
    assert metrics.lanes_inline == 1
    assert metrics.processes_spawned + metrics.processes_reused == 1
    assert len({node.pid for node in metrics.nodes}) == 2
    (dispatch,) = [span for span in tracer.spans if span.name == "scheduler:dispatch"]
    assert dispatch.attributes["plans"] == 1
