"""The parallel run's serial tail: what the driver does after the lanes.

Each report's collected streams are decoded the moment the report lands, so
a fast lane's branch is decoded while a slow lane still works.  These tests
pin the failure paths of that early collection — a lane failing after
another lane's branch was decoded, a branch that does not decode, a worker
killed mid-run — to the error text, the spill directory and the pool's
bookkeeping a run had when every decode waited for the last report; and the
tail's two spans, ``scheduler:gather`` and ``scheduler:deliver``.

The slow lane is made slow, and made to fail, by the fault plane: its output
is larger than an inline hand-off, so its writes to the spill file pass the
``spill:write`` point, which the fast lane's small output never reaches.
"""

import os
import pathlib
import sys

import pytest

from repro.api import PashConfig, ResilienceConfig, StreamingConfig
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, RelayNode
from repro.engine.channels import StoredStream
from repro.engine.pool import WorkerPool
from repro.engine.scheduler import ParallelScheduler
from repro.engine.workers import INLINE_HANDOFF_BYTES
from repro.obs.export import chrome_trace_document
from repro.obs.tracer import Tracer
from repro.resilience.fault import SPILL_WRITE, FaultSpec
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))
from check_trace import check_trace  # noqa: E402

#: The slow lane's output: well past the inline hand-off, so it is a spill file.
SLOW_LINES = [b"slow line %06d of the second file\n" % index for index in range(12_000)]
assert sum(map(len, SLOW_LINES)) > 4 * INLINE_HANDOFF_BYTES
#: Holds the slow lane at its first spill write, long after the fast lane reported.
STALL = FaultSpec(point=SPILL_WRITE, mode="delay", delay_seconds=0.4, max_fires=1)


def two_lanes(lane, tail):
    """``F0.txt -> lane``, ``F1.txt -> lane``, both gathered by ``tail`` into out.txt."""
    graph = DataflowGraph()
    gather = graph.add_node(tail)
    for name in ("F0.txt", "F1.txt"):
        node = graph.add_node(lane())
        graph.attach_input(node, graph.add_edge(kind=EdgeKind.FILE, name=name))
        graph.connect(node, gather)
    graph.attach_output(gather, graph.add_edge(kind=EdgeKind.FILE, name="out.txt"))
    return graph


@pytest.fixture()
def rig(tmp_path, monkeypatch):
    """A private pool, a spill directory to inspect, and a log of every decode."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F1.txt").write_bytes(b"".join(SLOW_LINES))
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


def test_a_lane_failing_after_a_decoded_branch_raises_the_failure(rig, tmp_path):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F0.txt").write_bytes(b"fast\nlane\n")
    fail = FaultSpec(point=SPILL_WRITE, mode="error", errno_name="EIO", after_bytes=2 * INLINE_HANDOFF_BYTES)
    graph = two_lanes(lambda: CommandNode(name="tr", arguments=["a-z", "A-Z"]), CatNode())
    with pytest.raises(ExecutionError) as excinfo:
        scheduler(STALL, fail).execute(graph)
    assert str(excinfo.value).startswith("1 worker(s) failed: tr a-z A-Z: ")
    assert "injected fault at spill:write" in str(excinfo.value)
    assert len(decoded) == 1  # the fast lane's branch, decoded before the failure came in
    assert os.listdir(spill) == []
    # Both workers reported: both are back in the idle set, alive.
    assert pool.stats()["busy"] == 0 and pool.stats()["idle"] == 2


def test_an_undecodable_branch_is_raised_once_every_report_is_in(rig, tmp_path):
    scheduler, pool, spill, decoded = rig
    # The fast lane passes invalid UTF-8 through a blocking relay, which never decodes.
    (tmp_path / "F0.txt").write_bytes(b"fine\n\xff\xfe broken\n")
    graph = two_lanes(lambda: RelayNode(blocking=True), CatNode())
    with pytest.raises(ExecutionError) as excinfo:
        scheduler(STALL).execute(graph)
    assert str(excinfo.value) == (
        "1 worker(s) failed: relay[blocking]: UnicodeDecodeError: "
        "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"
    )
    assert len(decoded) == 1  # the slow lane's file is not decoded, only removed
    assert os.listdir(spill) == []
    assert pool.stats()["busy"] == 0 and pool.stats()["idle"] == 2


def test_a_worker_killed_mid_run_is_discarded_and_its_file_removed(rig, tmp_path):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F0.txt").write_bytes(b"b\na\n")
    kill = FaultSpec(point=SPILL_WRITE, mode="kill", after_bytes=2 * INLINE_HANDOFF_BYTES)
    graph = two_lanes(lambda: CommandNode(name="sort"), AggregatorNode(aggregator="merge_sort"))
    with pytest.raises(ExecutionError) as excinfo:
        scheduler(STALL, kill).execute(graph)
    assert str(excinfo.value) == "worker(s) died without reporting: sort (exit code -9)"
    assert len(decoded) == 1
    assert os.listdir(spill) == []
    # A run whose collection fails drops every worker it dispatched, the
    # one that reported included, as it always has.
    assert pool.stats()["workers"] == 0


def test_the_tail_is_named_in_the_trace(rig, tmp_path):
    scheduler, pool, spill, decoded = rig
    (tmp_path / "F0.txt").write_bytes(b"b\na\n")
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
    assert check_trace(chrome_trace_document(tracer.spans)) == len(tracer.spans)
