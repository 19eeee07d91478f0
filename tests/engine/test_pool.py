"""The persistent worker pool: reuse, fallbacks, spawn support, teardown."""

import multiprocessing
import os

import pytest

from repro import api
from repro.api import Pash, PashConfig
from repro.dfg.builder import DFGBuilder
from repro.engine.pool import WorkerPool, resolve_context
from repro.engine.scheduler import ParallelScheduler, execute_graph_parallel
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

FILES = {
    "a.txt": ["banana", "apple foo", "cherry FOO"],
    "b.txt": ["date foo", "elderberry", "fig foo"],
}

SCRIPT = "cat a.txt b.txt | grep foo | sort > out.txt"


def environment(files=FILES):
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in files.items()})
    )


def build(script=SCRIPT):
    return DFGBuilder().build_from_script(script)


@pytest.fixture
def pool():
    pool = WorkerPool(start_method="fork")
    yield pool
    pool.shutdown()


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------


def test_second_run_reuses_worker_processes(pool):
    options = PashConfig(report_timeout_seconds=30)
    scheduler = ParallelScheduler(environment(), options, pool=pool)
    _, first = scheduler.execute(build())
    assert first.processes_spawned == len(first.nodes)
    assert first.processes_reused == 0

    scheduler = ParallelScheduler(environment(), options, pool=pool)
    result, second = scheduler.execute(build())
    assert result.files["out.txt"] == ["apple foo", "date foo", "fig foo"]
    assert second.processes_spawned == 0
    assert second.processes_reused == len(second.nodes)
    # The same OS processes served both runs.
    assert {node.pid for node in second.nodes} <= {node.pid for node in first.nodes}
    assert all(node.reused_worker for node in second.nodes)


def test_warm_pool_attribution_and_span_pids_stay_consistent(pool):
    """Regression: attribution counters and span pids agree on a warm re-run.

    The second run on a warm pool must spawn zero processes, reuse one per
    node, mark every ``NodeMetrics.reused_worker``, stamp matching spawn
    accounting (near-zero spawn time), and — with tracing on — ship worker
    spans whose pids are exactly the pool's worker pids and whose
    ``reused_worker`` attribute agrees with the metrics.
    """
    from repro.obs.tracer import Tracer

    options = PashConfig(report_timeout_seconds=30)
    tracer = Tracer()
    scheduler = ParallelScheduler(environment(), options, pool=pool, tracer=tracer)
    _, first = scheduler.execute(build())
    assert first.processes_spawned == len(first.nodes)
    assert first.processes_reused == 0

    mark = tracer.mark()
    scheduler = ParallelScheduler(environment(), options, pool=pool, tracer=tracer)
    _, second = scheduler.execute(build())
    assert second.processes_spawned == 0
    assert second.processes_reused == len(second.nodes)
    assert all(node.reused_worker for node in second.nodes)
    # Spawn time on the warm run only covers the (empty) growth check.
    assert second.spawn_seconds < first.spawn_seconds or first.spawn_seconds == 0

    worker_spans = [
        span for span in tracer.since(mark) if span.category == "worker"
    ]
    assert len(worker_spans) == len(second.nodes)
    pool_pids = set(pool.worker_pids())
    metric_pids = {node.pid for node in second.nodes}
    assert {span.pid for span in worker_spans} == metric_pids <= pool_pids
    assert all(span.attributes["reused_worker"] for span in worker_spans)
    # Span counters mirror the node metrics they were measured alongside.
    by_node = {span.attributes["node_id"]: span for span in worker_spans}
    for node in second.nodes:
        span = by_node[node.node_id]
        assert span.attributes["bytes_in"] == node.bytes_in
        assert span.attributes["bytes_out"] == node.bytes_out


def test_pool_grows_for_wider_graphs_and_keeps_workers(pool):
    options = PashConfig(report_timeout_seconds=30)
    ParallelScheduler(environment(), options, pool=pool).execute(build())
    small = pool.worker_count
    wide = build("cat a.txt b.txt | grep foo | tr a-z A-Z | sort > out.txt")
    from repro.api import optimize  # noqa: PLC0415 - test-local import

    optimize(wide, PashConfig.paper_default(4))
    ParallelScheduler(environment(), options, pool=pool).execute(wide)
    assert pool.worker_count >= small
    assert pool.processes_spawned >= small


def test_disabling_the_pool_forks_per_node():
    options = PashConfig(jobs=0, report_timeout_seconds=30)
    _, metrics = execute_graph_parallel(build(), environment(), options)
    assert metrics.processes_spawned == len(metrics.nodes)
    assert metrics.processes_reused == 0
    assert not any(node.reused_worker for node in metrics.nodes)


# ---------------------------------------------------------------------------
# Fallbacks
# ---------------------------------------------------------------------------


def test_unpicklable_registry_falls_back_to_dedicated_forks(pool):
    env = environment()
    env.registry = env.registry.copy()
    real_grep = env.registry.lookup("grep").function

    def closure_grep(arguments, inputs):  # closures cannot pickle
        return real_grep(arguments, inputs)

    env.registry.register_function("grep", closure_grep, "unpicklable grep")
    options = PashConfig(report_timeout_seconds=30)
    result, metrics = ParallelScheduler(env, options, pool=pool).execute(build())
    assert result.files["out.txt"] == ["apple foo", "date foo", "fig foo"]
    # Every node ran in a dedicated fork; the pool served none of them.
    assert not any(node.reused_worker for node in metrics.nodes)


def test_worker_pids_stay_distinct_after_a_failed_run(pool):
    """Regression: a failure path must not hand one worker to two nodes.

    Double-releasing a pool worker once put it on the idle list twice; the
    next run then serialized two concurrent nodes on one process, which can
    deadlock.  After any failed run, a subsequent run must still map nodes
    to distinct processes.
    """
    from repro.dfg.edges import EdgeKind
    from repro.dfg.graph import DataflowGraph
    from repro.dfg.nodes import CommandNode

    def bad_graph():
        graph = DataflowGraph()
        failing = graph.add_node(CommandNode(name="unknowncommand123"))
        source = graph.add_edge(kind=EdgeKind.FILE, name="a.txt")
        graph.attach_input(failing, source)
        sink = graph.add_edge(kind=EdgeKind.FILE, name="out.txt")
        graph.attach_output(failing, sink)
        return graph

    options = PashConfig(report_timeout_seconds=30)
    for _ in range(2):
        with pytest.raises(ExecutionError):
            ParallelScheduler(environment(), options, pool=pool).execute(bad_graph())
    graph = build()
    _, metrics = ParallelScheduler(environment(), options, pool=pool).execute(graph)
    pids = [node.pid for node in metrics.nodes]
    assert len(pids) == len(set(pids)) == len(graph.nodes)


def test_fork_unavailable_warns_once_and_falls_back(monkeypatch):
    import repro.engine.pool as pool_module

    real_get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(pool_module.multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(pool_module, "_warned_methods", set())
    with pytest.warns(RuntimeWarning, match="start method 'fork' is unavailable"):
        context = resolve_context("fork")
    assert context.get_start_method() in ("spawn", "forkserver", "fork")
    # Second resolution is silent (warn-once).
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolve_context("fork")


def test_pool_executes_under_spawn_start_method():
    """SCM_RIGHTS fd passing + registry re-registration: no fork needed."""
    pool = WorkerPool(start_method="spawn")
    try:
        options = PashConfig(report_timeout_seconds=60)  # start method: the pool's
        result, metrics = ParallelScheduler(environment(), options, pool=pool).execute(
            build()
        )
        assert result.files["out.txt"] == ["apple foo", "date foo", "fig foo"]
        assert metrics.processes_spawned == len(metrics.nodes)
    finally:
        pool.shutdown()


def test_poolless_run_without_fork_is_a_loud_error(monkeypatch):
    """jobs=0 forks per node; on a spawn-only platform that cannot work."""
    from repro.engine import scheduler as scheduler_module

    monkeypatch.setattr(
        scheduler_module,
        "resolve_context",
        lambda preferred: multiprocessing.get_context("spawn"),
    )
    options = PashConfig(jobs=0, report_timeout_seconds=30)
    with pytest.raises(ExecutionError, match="worker pool"):
        execute_graph_parallel(build(), environment(), options)


# ---------------------------------------------------------------------------
# Sessions and teardown
# ---------------------------------------------------------------------------


def test_pash_session_owns_and_closes_its_pool():
    config = PashConfig.paper_default(2, backend="parallel")
    with Pash(config) as pash:
        first = pash.run(SCRIPT, environment=environment())
        second = pash.run(SCRIPT, environment=environment())
        assert second.metrics.processes_reused > 0
        session_pool = pash._pool
        assert session_pool is not None and session_pool.worker_count > 0
    assert session_pool.closed
    assert session_pool.worker_count == 0
    assert pash._pool is None


def test_non_session_runs_share_the_default_pool():
    first = api.run(
        SCRIPT, config=PashConfig.paper_default(2), backend="parallel",
        environment=environment(),
    )
    second = api.run(
        SCRIPT, config=PashConfig.paper_default(2), backend="parallel",
        environment=environment(),
    )
    # Every node but the lane the driver runs itself is served by a reused worker.
    assert second.metrics.lanes_inline == 1
    assert second.metrics.processes_reused == len(second.metrics.nodes) - 1
    assert {n.pid for n in second.metrics.nodes} <= {n.pid for n in first.metrics.nodes}


def test_shutdown_is_idempotent_and_blocks_dispatch(pool):
    pool.prewarm(1)
    pool.shutdown()
    pool.shutdown()
    assert pool.closed
    with pytest.raises(RuntimeError):
        pool.ensure_idle(1)


def test_concurrent_runs_on_the_shared_pool_serialize_safely():
    """Regression: one pool = one report queue; interleaved runs must not
    steal each other's reports (they serialize on the pool's run lock)."""
    import threading

    outcomes = {}

    def run(key):
        result = api.run(
            SCRIPT, config=PashConfig.paper_default(2), backend="parallel",
            environment=environment(),
        )
        outcomes[key] = result.output_of("out.txt")

    threads = [threading.Thread(target=run, args=(index,)) for index in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert outcomes == {index: ["apple foo", "date foo", "fig foo"] for index in range(3)}


def test_jobs_config_prewarms_and_zero_disables(pool):
    warm = PashConfig(jobs=12, report_timeout_seconds=30)
    ParallelScheduler(environment(), warm, pool=pool).execute(build())
    assert pool.worker_count >= 12
    poolless = PashConfig(jobs=0, report_timeout_seconds=30)
    _, metrics = execute_graph_parallel(build(), environment(), poolless, pool=pool)
    assert metrics.processes_reused == 0  # the warm pool was bypassed
    assert metrics.processes_spawned == len(metrics.nodes)


# ---------------------------------------------------------------------------
# Data-plane rationalization metrics
# ---------------------------------------------------------------------------


def test_relays_elided_and_edges_classified(pool):
    graph = build("cat a.txt b.txt | grep foo | tr a-z A-Z | sort | uniq > out.txt")
    from repro.api import optimize  # noqa: PLC0415 - test-local import

    optimize(graph, PashConfig.paper_default(2))
    options = PashConfig(report_timeout_seconds=30)
    result, metrics = ParallelScheduler(environment(), options, pool=pool).execute(graph)
    expected = ["APPLE FOO", "DATE FOO", "FIG FOO"]
    assert result.files["out.txt"] == expected
    assert metrics.relays_elided > 0
    assert metrics.edges_buffered > 0  # the mid-graph `sort -m` fan-in still pumps
    assert metrics.aggregators_gathered == 1  # the tail `uniq` merge is collected
    # Elided relays and the gathered aggregator report no per-node metrics:
    # every entry is a real worker.
    assert len(metrics.nodes) == len(graph.nodes) - metrics.relays_elided - 1
    assert os.getpid() not in {node.pid for node in metrics.nodes}
