"""``jit_inner_backend="auto"``: the driver sizes every region execution.

The planner's own properties live in ``tests/transform/test_planner.py``;
this file checks what the JIT driver does with its answer — byte-identity
on both sides of the break-even for every paper script, one compile per
(region, width), no pool worker for a session that only ever declines, and a
report that shows the decision.  Seeds are fixed so CI is deterministic;
``PASH_TEST_SEED`` widens coverage and failure messages carry the seed.
"""

import dataclasses
import os
import pathlib
import sys

import pytest

from repro.api import Pash, PashConfig
from repro.api import pash as pash_module
from repro.commands.base import CommandError
from repro.dfg.builder import translate_script
from repro.jit import driver as driver_module
from repro.jit.cache import PlanCache
from repro.jit.driver import JitDriver
from repro.obs.expose import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.service.telemetry import fold_job
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import simulate_graph
from repro.transform import planner
from repro.workloads.oneliners import ONE_LINERS
from repro.workloads.unix50 import UNIX50_PIPELINES

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
WIDTH = 2
HOST = MachineModel.this_host()

WORKLOADS = {
    (getattr(workload, "name", None) or f"unix50-{workload.index}"): workload
    for workload in list(ONE_LINERS) + list(UNIX50_PIPELINES)
}


def environment_of(files):
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in files.items()})
    )


def run_jit(script, files, inner_backend, **driver_options):
    config = PashConfig.paper_default(WIDTH, jit_inner_backend=inner_backend)
    environment = environment_of(files)
    result = JitDriver(config=config, environment=environment, **driver_options).run(script)
    return result, environment.filesystem


def run_interpreter(script, files):
    filesystem = VirtualFileSystem({name: list(lines) for name, lines in files.items()})
    return ShellInterpreter(filesystem=filesystem).run_script(script), filesystem


def snapshot(filesystem):
    return {name: filesystem.read(name) for name in filesystem.names()}


@pytest.fixture
def two_cores(monkeypatch):
    """This host with two cores, whatever the CI box has (one core would
    leave the planner nothing to choose between)."""
    machine = dataclasses.replace(HOST, cores=2)
    monkeypatch.setattr(MachineModel, "this_host", classmethod(lambda cls: machine))
    return machine


@pytest.fixture
def early_break_even(monkeypatch):
    """A host whose in-process executor may hold 1500 lines: the regions of a
    40-line dataset stay below the break-even, those of a 1200-line one are
    past it — both sides at sizes a unit test can afford."""
    machine = dataclasses.replace(HOST, cores=2, in_process_lines=1500)
    monkeypatch.setattr(MachineModel, "this_host", classmethod(lambda cls: machine))
    return machine


# ---------------------------------------------------------------------------
# Byte-identity on both sides of the break-even
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_paper_scripts_agree_on_both_sides_of_the_break_even(name, early_break_even):
    workload = WORKLOADS[name]
    script = workload.script_for_width(WIDTH)
    small, large = 30 + BASE_SEED % 20, 1100 + BASE_SEED % 200
    widths = {}
    for lines in (small, large):
        files = workload.correctness_dataset(WIDTH, lines=lines)
        try:
            expected_stdout, expected_fs = run_interpreter(script, files)
        except CommandError as refusal:  # e.g. ``sed -n``, by design
            pytest.skip(f"the interpreter refuses this script: {refusal}")
        auto, auto_fs = run_jit(script, files, "auto")
        if auto.jit.fallbacks == auto.jit.regions_seen:
            pytest.skip("the jit accepts no region of this script")
        pooled, pooled_fs = run_jit(script, files, "parallel")
        context = f"{name}, {lines} lines (PASH_TEST_SEED={BASE_SEED})"
        assert auto.stdout == pooled.stdout == expected_stdout, context
        assert snapshot(auto_fs) == snapshot(pooled_fs) == snapshot(expected_fs), context
        widths[lines] = {
            outcome.width for outcome in auto.jit.outcomes if outcome.action != "fallback"
        }
    # Both sides were really exercised: something took the pool on the
    # large input, and something stayed in-process on the small one (unless
    # the script also reads a fixed dictionary that is large by itself).
    assert WIDTH in widths[large], f"{name}: {large} lines ran at {widths[large]}"
    if not getattr(workload, "static_files", None):
        assert 1 in widths[small], f"{name}: {small} lines ran at {widths[small]}"


# ---------------------------------------------------------------------------
# One compile per (region, width)
# ---------------------------------------------------------------------------

#: Seven stateless stages: eight edges of a million lines are more than the
#: in-process executor may hold, and the fused chain is cheap on the pool.
LONG_CHAIN = " | ".join(["tr a-z A-Z", "tr A-Z a-z"] * 3 + ["tr a-z A-Z"])


def test_a_loop_over_mixed_sizes_compiles_each_width_once(two_cores):
    files = {"small.txt": ["ab"] * 100, "big.txt": ["ab"] * 1_000_000}
    script = f"for f in small.txt big.txt; do cat $f | {LONG_CHAIN} | grep -c B; done"
    result, _ = run_jit(script, files, "auto")
    assert result.stdout == ["100", "1000000"]
    assert [outcome.width for outcome in result.jit.outcomes] == [1, 2]
    assert [outcome.input_lines for outcome in result.jit.outcomes] == [100, 1_000_000]
    assert result.jit.regions_compiled == 2
    assert result.jit.regions_inline == 1


def test_one_region_whose_input_grows_holds_one_plan_per_width(early_break_even):
    """Same region, same bindings, two sizes: the key carries the width."""
    cache = PlanCache()
    script = "cat log.txt | tr a-z A-Z | sort"
    sizes = (20, 2000, 20, 2000)
    outcomes = []
    for lines in sizes:
        files = {"log.txt": [f"line {index}" for index in range(lines)]}
        result, _ = run_jit(script, files, "auto", cache=cache)
        assert result.stdout == sorted(line.upper() for line in files["log.txt"])
        outcomes.extend(result.jit.outcomes)
    assert [outcome.width for outcome in outcomes] == [1, 2, 1, 2]
    # The sequential graph and the width-2 shape, compiled once each — the
    # latter by the first execution that wants it, not while the 20-line run
    # was being decided (the floor under every pool shape had already lost).
    assert [outcome.action for outcome in outcomes] == ["compiled", "compiled", "cached", "cached"]
    assert len(cache) == 2
    assert {key[-1] for key in cache._entries} == {1, 2}


def test_same_sizes_plan_once(monkeypatch, two_cores):
    calls = []
    real = driver_module.plan_region
    monkeypatch.setattr(
        driver_module, "plan_region", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    files = {"in.txt": [f"light {index}" for index in range(50)]}
    result, _ = run_jit("for r in 1 2 3 4; do grep light in.txt | sort | head -n 2; done", files, "auto")
    assert result.jit.regions_seen == 4 and result.jit.regions_inline == 4
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The pool is only touched when the planner says so
# ---------------------------------------------------------------------------


def test_a_session_that_only_declines_spawns_no_worker():
    files = {"in.txt": [f"light line {index}" for index in range(200)]}
    with Pash(PashConfig.paper_default(WIDTH, backend="jit")) as session:
        for script in (
            "grep light in.txt | sort | head -n 3",
            "for r in 1 2 3; do cat in.txt | tr a-z A-Z | sort | uniq -c; done",
            "cat in.txt | wc -l",
        ):
            result = session.run(script, environment=environment_of(files))
            assert result.jit.fallbacks == 0
            assert result.jit.regions_inline == result.jit.regions_seen
        assert session._session_pool().processes_spawned == 0


def test_a_large_on_disk_region_is_planned_as_the_shape_the_pool_runs(
    two_cores, tmp_path, monkeypatch
):
    """Over a file at rest the pool runs two workers — no ``cat``, no split,
    no tail ``cat`` — and the planner bills exactly that: the region wins on
    disk, and loses when the same lines must be fed from the driver's memory
    through a split worker — so plainly that the bound under every pool shape
    decides it and the shape is never compiled."""
    monkeypatch.chdir(tmp_path)
    lines = [f"light line {index} of the file alpha beta gamma" for index in range(100_000)]
    (tmp_path / "in.txt").write_text("".join(line + "\n" for line in lines))
    script = "cat in.txt | grep -v lights | cut -d ' ' -f 1-4 > out.txt"
    config = PashConfig.paper_default(WIDTH)

    on_disk = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
    result = JitDriver(config=config, environment=on_disk).run(script)
    (outcome,) = result.jit.outcomes
    assert outcome.width == WIDTH
    assert outcome.predicted_parallel_seconds < outcome.predicted_sequential_seconds
    assert (result.metrics.splits_ranged, result.metrics.cats_gathered) == (1, 1)
    assert len(result.metrics.nodes) == WIDTH

    held, _ = run_jit(script, {"in.txt": lines}, "auto")
    (in_memory,) = held.jit.outcomes
    assert (in_memory.width, in_memory.parallel_is_floor) == (1, True)
    assert in_memory.predicted_sequential_seconds <= in_memory.predicted_parallel_seconds
    assert held.files["out.txt"] == result.files["out.txt"]
    # The shape the bound spared compiling: fed from memory, it costs more
    # than twice what the same shape costs over the file at rest.
    shape = translate_script(script).regions[0].dfg
    config.pipeline().run(shape, config)
    fed = two_cores.feed_seconds(len(lines)) + simulate_graph(
        shape, {"in.txt": len(lines)}, machine=two_cores, cost_model=planner._COSTS,
        include_setup=True, in_memory=["in.txt"],
    ).total_seconds
    assert fed > 2 * outcome.predicted_parallel_seconds


def test_gathering_the_tail_cat_moves_no_decision_at_script_mix_sizes(two_cores):
    """At the parent every region of every paper script stayed in-process
    over 500-line in-memory inputs (pash-bench's ``script_mix``); billing the
    tail ``cat`` as collection must not tip one of them onto the pool."""
    with Pash(PashConfig.paper_default(WIDTH, backend="jit")) as session:
        for name, workload in sorted(WORKLOADS.items()):
            files = workload.correctness_dataset(WIDTH, lines=500)
            try:
                result = session.run(
                    workload.script_for_width(WIDTH), environment=environment_of(files)
                )
            except CommandError:
                continue  # e.g. ``sed -n``, refused by design
            widths = {outcome.width for outcome in result.jit.outcomes}
            assert widths <= {0, 1}, f"{name}: regions ran at {widths}"
        assert session._session_pool().processes_spawned == 0


def test_an_input_nobody_can_size_runs_at_the_configured_width():
    """A missing file has no line count: the region takes the pool at
    ``config.width``, which reports the missing input as it always did."""
    with pytest.raises(ExecutionError, match="missing.txt"):
        run_jit("cat missing.txt | sort", {}, "auto")


def test_a_kernel_error_in_process_is_an_execution_error_like_on_the_pool():
    files = {"in.txt": ["a b", "c d"]}
    for inner_backend in ("auto", "parallel"):
        with pytest.raises(ExecutionError, match="cut requires"):
            run_jit("cat in.txt | cut | sort", files, inner_backend)


def test_parallel_keeps_the_exact_width_and_the_pool():
    files = {"in.txt": [f"light line {index}" for index in range(50)]}
    result, _ = run_jit("grep light in.txt | sort", files, "parallel")
    assert [outcome.width for outcome in result.jit.outcomes] == [WIDTH]
    assert result.jit.regions_inline == 0
    assert result.metrics.worker_count >= 2
    assert result.jit.outcomes[0].predicted_sequential_seconds == 0.0


# ---------------------------------------------------------------------------
# The decision is legible
# ---------------------------------------------------------------------------


def test_the_report_the_span_and_the_counter_carry_the_decision(two_cores):
    tracer = Tracer()
    files = {"in.txt": [f"light line {index}" for index in range(300)]}
    result, _ = run_jit("grep light in.txt | sort", files, "auto", tracer=tracer)
    (outcome,) = result.jit.outcomes
    assert (outcome.width, outcome.input_lines) == (1, 300)
    assert 0 < outcome.predicted_sequential_seconds < outcome.predicted_parallel_seconds

    document = result.jit.to_dict()
    assert document["regions_inline"] == 1
    row = document["outcomes"][0]
    for name in ("width", "input_lines", "predicted_sequential_seconds", "predicted_parallel_seconds"):
        assert row[name] == getattr(outcome, name)
    (line,) = result.jit.decisions()
    assert line.startswith("region 0 width 1: 300 lines, predicted ")
    assert "1 inline" in result.jit.summary()

    (span,) = [span for span in tracer.spans if span.name == "jit:region-execute"]
    assert span.attributes["width"] == 1
    assert span.attributes["input_lines"] == 300
    assert span.attributes["predicted_parallel_seconds"] == outcome.predicted_parallel_seconds

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))
    import check_metrics

    # The counter is the daemon's fold of this very report, not a second count.
    registry = MetricsRegistry()
    fold_job(registry, result.metrics, result.jit)
    text = prometheus_text(registry)
    check_metrics.lint_text(text)
    assert "pash_jit_regions_inline_total 1" in text


def test_a_bound_is_never_shown_as_a_simulation(early_break_even):
    """Below the floor no pool shape was simulated, and the report says so."""
    script = "cat log.txt | tr a-z A-Z | sort"
    below, _ = run_jit(script, {"log.txt": ["ab"] * 20}, "auto")
    above, _ = run_jit(script, {"log.txt": ["ab"] * 2000}, "auto")
    pinned, _ = run_jit(script, {"log.txt": ["ab"] * 20}, "parallel")
    (bound,), (simulated,) = below.jit.outcomes, above.jit.outcomes
    floor = early_break_even.setup_seconds + early_break_even.spawn_seconds(1)
    assert (bound.width, bound.parallel_is_floor) == (1, True)
    # 20 lines the driver holds in memory still have to be fed to a worker.
    assert bound.predicted_parallel_seconds == floor + early_break_even.feed_seconds(20)
    assert (simulated.width, simulated.parallel_is_floor) == (2, False)
    assert " vs ≥ " in below.jit.decisions()[0]
    assert "≥" not in above.jit.decisions()[0]
    # Planning is timed wherever it happened and nowhere else.
    for result, planned in ((below, True), (above, True), (pinned, False)):
        assert (result.jit.plan_seconds > 0) == planned
        assert result.jit.to_dict()["plan_seconds"] == result.jit.plan_seconds
        assert ("plan " in result.jit.summary()) == planned


def test_decisions_lists_only_planned_regions_and_caps_its_length():
    files = {"in.txt": ["light"] * 10}
    result, _ = run_jit("for r in $(seq 1 30); do grep light in.txt | sort; done", files, "auto")
    lines = result.jit.decisions(limit=5)
    assert len(lines) == 6 and lines[-1] == "... and 25 more planned regions"
    pooled, _ = run_jit("grep light in.txt | sort", files, "parallel")
    assert pooled.jit.decisions() == []


# ---------------------------------------------------------------------------
# The front door on the jit path
# ---------------------------------------------------------------------------


def test_pash_run_on_the_jit_path_compiles_nothing_ahead_of_time(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Pash.run(backend='jit') must not translate the script up front")

    monkeypatch.setattr(pash_module, "translate_script", refuse)
    files = {"in.txt": ["b", "light a", "light c"]}
    tracer = Tracer()
    pash = Pash(PashConfig.paper_default(WIDTH, backend="jit"), tracer=tracer)
    result = pash.run("grep light in.txt | sort", environment=environment_of(files))
    assert result.stdout == ["light a", "light c"]
    assert result.backend == "jit"
    # Parsed once, inside the run, and the run's spans say so.
    assert [span.name for span in result.spans if span.category == "parse"] == ["parse"]


def test_compile_then_execute_jit_keeps_working():
    files = {"in.txt": ["b", "light a", "light c"]}
    compiled = Pash(PashConfig.paper_default(WIDTH)).compile("grep light in.txt | sort")
    assert compiled.optimized_graphs, "the artifact still holds the AOT plan"
    result = compiled.execute(backend="jit", environment=environment_of(files))
    assert result.stdout == ["light a", "light c"]
    assert result.jit.regions_seen == 1
