"""Property-based correctness: random pipelines, random data, random widths.

The core claim of the paper is that PaSh's transformations preserve the
sequential output.  These tests generate random pipelines from the supported
command vocabulary, random input corpora, and random parallelization
configurations, and assert output equality between the unoptimized and the
optimized dataflow graphs.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import EagerMode, PashConfig, SplitMode, optimize
from repro.dfg.builder import translate_script
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem

# Stages are chosen so any composition is a valid pipeline over text lines.
STATELESS_STAGES = [
    "grep a",
    "grep -v b",
    "tr a b",
    "tr A-Z a-z",
    "cut -c 1-5",
    "sed s/a/o/",
    "lowercase",
    "strip-punct",
]
PURE_STAGES = [
    "sort",
    "sort -r",
    "uniq",
    "uniq -c",
    "wc -l",
    "head -n 7",
    "sort -rn",
]

lines_strategy = st.lists(
    st.text(alphabet="abcd e", min_size=0, max_size=12), min_size=0, max_size=60
)


def execute(script, files, config=None):
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
    stdout = []
    for region in translate_script(script).regions:
        if config is not None:
            optimize(region.dfg, config)
        stdout.extend(DFGExecutor(environment).execute(region.dfg).stdout)
    return stdout


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(lines_strategy, min_size=2, max_size=4),
    stages=st.lists(st.sampled_from(STATELESS_STAGES + PURE_STAGES), min_size=1, max_size=4),
    width=st.integers(min_value=2, max_value=6),
)
def test_random_pipelines_preserve_output(data, stages, width):
    files = {f"chunk{i}.txt": chunk for i, chunk in enumerate(data)}
    script = "cat " + " ".join(files) + " | " + " | ".join(stages)
    baseline = execute(script, files)
    parallel = execute(script, files, PashConfig.paper_default(width, fuse_stages=False))
    assert parallel == baseline


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=lines_strategy,
    stateless=st.sampled_from(STATELESS_STAGES),
    pure=st.sampled_from(PURE_STAGES),
    eager=st.sampled_from(list(EagerMode)),
    split=st.sampled_from(list(SplitMode)),
)
def test_single_file_split_configurations_preserve_output(data, stateless, pure, eager, split):
    files = {"single.txt": data}
    script = f"cat single.txt | {stateless} | {pure}"
    baseline = execute(script, files)
    config = PashConfig(width=3, eager=eager, split=split, fuse_stages=False)
    parallel = execute(script, files, config)
    assert parallel == baseline


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.lists(lines_strategy, min_size=2, max_size=3), width=st.integers(2, 8))
def test_stateless_only_pipelines_any_width(data, width):
    files = {f"f{i}.txt": chunk for i, chunk in enumerate(data)}
    script = "cat " + " ".join(files) + " | grep a | tr a b | cut -c 1-4"
    baseline = execute(script, files)
    parallel = execute(script, files, PashConfig.paper_default(width, fuse_stages=False))
    assert parallel == baseline


# ---------------------------------------------------------------------------
# Service-tier concurrency: random pipelines through one shared daemon
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_daemon():
    """One long-lived daemon shared by every hypothesis example below."""
    from repro.api import PashConfig
    from repro.service import PashServiceDaemon, ServiceOptions

    daemon = PashServiceDaemon(
        ServiceOptions(
            listen="127.0.0.1:0",
            executors=4,
            queue_limit=64,
            tenant_quota=64,
            # Pinned to the pool: the property below is about jobs sharing
            # it, and "auto" would keep these small regions in-process.
            config=PashConfig.paper_default(
                2, backend="jit", jit_inner_backend="parallel"
            ),
        )
    )
    daemon.start()
    yield daemon
    daemon.shutdown()


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(lines_strategy, min_size=1, max_size=2),
    pipelines=st.lists(
        st.lists(
            st.sampled_from(STATELESS_STAGES + PURE_STAGES), min_size=1, max_size=3
        ),
        min_size=4,
        max_size=4,
    ),
)
def test_concurrent_service_jobs_match_sequential_interpreter(
    service_daemon, data, pipelines
):
    """Four threads, one shared session pool: no cross-job interleaving.

    Each random pipeline's stdout over the socket must equal a sequential
    :class:`ShellInterpreter` run of the same script on the same corpus —
    under concurrent submission through the daemon's shared ``WorkerPool``.
    """
    from repro.service import ServiceClient

    files = {f"p{index}.txt": list(chunk) for index, chunk in enumerate(data)}
    scripts = [
        "cat " + " ".join(files) + " | " + " | ".join(stages)
        for stages in pipelines
    ]
    expected = []
    for script in scripts:
        oracle = ShellInterpreter(
            filesystem=VirtualFileSystem({k: list(v) for k, v in files.items()})
        )
        expected.append(oracle.run_script(script))

    results = [None] * len(scripts)
    errors = []

    def submit(slot):
        try:
            client = ServiceClient(service_daemon.endpoint, timeout=60.0)
            results[slot] = client.submit(
                scripts[slot], tenant=f"prop-{slot}", files=files, timeout=55.0
            )
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=(slot,)) for slot in range(len(scripts))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    assert not any(thread.is_alive() for thread in threads), "a submission hung"
    assert not errors, errors
    for slot, job in enumerate(results):
        assert job["state"] == "done", job.get("error")
        assert job["stdout"] == expected[slot]
    # The shared pool amortizes processes across every example this module
    # has run: lifetime spawn count is bounded by the widest single graph
    # (plus warm idle workers), not by the number of jobs served.
    assert service_daemon.pool.stats()["processes_spawned"] <= 48
