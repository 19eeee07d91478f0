"""Generated tests for the region planner (``repro.transform.planner``).

The planner is a pure function of (graph, line counts, cores), so every
property here is checked over the sequential graphs of the paper's own
scripts with machines, widths and sizes drawn from a seed.  Seeds are fixed
so CI is deterministic; ``PASH_TEST_SEED`` widens coverage and every failure
message carries the seed that reproduces it.
"""

import dataclasses
import math
import os
import random
from collections import Counter

import pytest

from repro.api import PashConfig
from repro.dfg.builder import translate_script
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import simulate_graph
from repro.transform import planner
from repro.transform.planner import candidate_widths, choose_width, plan_region
from repro.workloads.oneliners import ONE_LINERS
from repro.workloads.unix50 import UNIX50_PIPELINES

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED + offset for offset in range(4)]
HOST = MachineModel.this_host()


def region_graphs():
    """``(label, sequential graph)`` of every region of every paper script."""
    graphs = []
    for workload in list(ONE_LINERS) + list(UNIX50_PIPELINES):
        label = getattr(workload, "name", None) or f"unix50-{workload.index}"
        for index, region in enumerate(translate_script(workload.script_for_width(2)).regions):
            graphs.append((f"{label}#{index}", region.dfg))
    return graphs


GRAPHS = region_graphs()


def draw(rng):
    """One (label, graph, config, machine) case."""
    label, graph = rng.choice(GRAPHS)
    config = PashConfig.paper_default(rng.choice([1, 2, 3, 4, 8, 16]))
    machine = dataclasses.replace(HOST, cores=rng.choice([1, 2, 3, 4, 8, 64]))
    return label, graph, config, machine


def line_counts(graph, lines):
    return {edge.name: lines for edge in graph.input_edges() if edge.name}


def test_the_corpus_is_not_vacuous():
    assert len(GRAPHS) >= 40
    assert any(len(graph.nodes) >= 6 for _, graph in GRAPHS)


@pytest.mark.parametrize("seed", SEEDS)
def test_width_never_exceeds_the_config_or_the_cores(seed):
    rng = random.Random(seed)
    for _ in range(60):
        label, graph, config, machine = draw(rng)
        lines = int(10 ** rng.uniform(0, 8.5))
        width = choose_width(graph, line_counts(graph, lines), config, machine=machine)
        context = f"seed {seed}: {label}, {lines} lines, width {config.width}, {machine.cores} cores"
        assert 1 <= width <= config.width, context
        assert width <= machine.cores, context


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_input_stays_in_process(seed):
    rng = random.Random(seed)
    for _ in range(40):
        label, graph, config, machine = draw(rng)
        plan = plan_region(graph, line_counts(graph, 0), config, machine=machine)
        assert plan.width == 1, f"seed {seed}: {label}"
        assert plan.input_lines == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_width_is_monotone_in_input_lines(seed):
    rng = random.Random(seed)
    for _ in range(25):
        label, graph, config, machine = draw(rng)
        sizes = sorted(int(10 ** rng.uniform(0, 8.5)) for _ in range(8))
        widths = [
            choose_width(graph, line_counts(graph, lines), config, machine=machine)
            for lines in sizes
        ]
        assert widths == sorted(widths), (
            f"seed {seed}: {label}, width {config.width}, {machine.cores} cores: "
            f"{list(zip(sizes, widths))}"
        )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_decision_repeats_exactly(seed):
    rng = random.Random(seed)
    for _ in range(3):
        label, graph, config, machine = draw(rng)
        counts = line_counts(graph, int(10 ** rng.uniform(2, 7)))
        first = plan_region(graph, counts, config, machine=machine)
        for _ in range(100):
            assert plan_region(graph, counts, config, machine=machine) == first, (
                f"seed {seed}: {label}"
            )


def test_both_sides_of_the_break_even_are_reachable():
    """The properties above would hold for a planner that always says 1."""
    rng = random.Random(BASE_SEED)
    machine = dataclasses.replace(HOST, cores=8)
    config = PashConfig.paper_default(8)
    widths = set()
    for _ in range(40):
        _, graph = rng.choice(GRAPHS)
        for lines in (100, 10**8):
            widths.add(choose_width(graph, line_counts(graph, lines), config, machine=machine))
    assert 1 in widths and max(widths) > 1


def test_predictions_are_reported_for_both_shapes():
    _, graph = next(item for item in GRAPHS if item[0].startswith("wf"))
    machine = dataclasses.replace(HOST, cores=2)
    plan = plan_region(graph, line_counts(graph, 500), PashConfig.paper_default(2), machine=machine)
    assert plan.width == 1
    assert plan.input_lines == 1000  # two input files
    assert 0 < plan.predicted_sequential_seconds < plan.predicted_parallel_seconds


def test_no_candidate_means_no_parallel_prediction():
    _, graph = GRAPHS[0]
    one_core = dataclasses.replace(HOST, cores=1)
    for config, machine in (
        (PashConfig.paper_default(8), one_core),
        (PashConfig.paper_default(1), HOST),
    ):
        plan = plan_region(graph, line_counts(graph, 10**7), config, machine=machine)
        assert (plan.width, plan.predicted_parallel_seconds) == (1, 0.0)


def test_inputs_held_in_memory_make_the_pool_dearer():
    """Table-2 ``grep`` over two 1M-line files: two workers each read their
    own file and win; the same lines held by the driver must be shipped to
    those workers first, and the region stays in-process."""
    _, graph = next(item for item in GRAPHS if item[0].startswith("grep#"))
    config = PashConfig.paper_default(2)
    machine = dataclasses.replace(HOST, cores=2, in_process_lines=0)
    counts = line_counts(graph, 10**6)
    on_disk = plan_region(graph, counts, config, machine=machine)
    held = plan_region(graph, counts, config, machine=machine, in_memory=list(counts))
    assert (on_disk.width, held.width) == (2, 1)
    assert held.predicted_sequential_seconds == on_disk.predicted_sequential_seconds
    assert held.predicted_parallel_seconds > on_disk.predicted_parallel_seconds
    # stdin is always held by the driver.
    piped = plan_region(graph, counts, config, stdin_lines=10**6, machine=machine)
    assert piped.predicted_parallel_seconds > on_disk.predicted_parallel_seconds


def test_a_region_too_large_to_hold_leaves_the_process():
    """Past ``in_process_lines`` the in-process executor is not a candidate."""
    _, graph = next(item for item in GRAPHS if item[0].startswith("grep#"))
    config = PashConfig.paper_default(2)
    machine = dataclasses.replace(HOST, cores=2, in_process_lines=0)
    counts = line_counts(graph, 10**6)
    assert plan_region(graph, counts, config, machine=machine, in_memory=list(counts)).width == 1
    bounded = dataclasses.replace(machine, in_process_lines=10**6)
    assert plan_region(graph, counts, config, machine=bounded, in_memory=list(counts)).width == 2


def test_ties_go_to_the_lower_width(monkeypatch):
    class Flat:
        total_seconds = 1.0
        edge_lines = {}

    monkeypatch.setattr(planner, "simulate_graph", lambda *args, **kwargs: Flat())
    _, graph = GRAPHS[0]
    machine = dataclasses.replace(HOST, cores=8)
    assert choose_width(graph, line_counts(graph, 10**6), PashConfig.paper_default(8), machine=machine) == 1


def test_candidate_widths_are_powers_of_two_and_the_limit():
    assert candidate_widths(1) == []
    assert candidate_widths(2) == [2]
    assert candidate_widths(6) == [2, 4, 6]
    assert candidate_widths(16) == [2, 4, 8, 16]


def test_the_default_machine_is_this_host(monkeypatch):
    """Without ``machine=`` the cores are the ones this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _, graph = GRAPHS[0]
    assert choose_width(graph, line_counts(graph, 10**8), PashConfig.paper_default(8)) == 1


def test_the_planner_leaves_the_sequential_graph_alone():
    _, graph = GRAPHS[0]
    before = graph.describe()
    plan_region(graph, line_counts(graph, 10**7), PashConfig.paper_default(4), machine=HOST)
    assert graph.describe() == before


# ---------------------------------------------------------------------------
# The floor is admissible: deciding by the bound decides what the search did
# ---------------------------------------------------------------------------

_SHAPES = {}


def compiled_shape(label, graph, width):
    """The pass pipeline's shape of ``graph`` at ``width``, built once."""
    if (label, width) not in _SHAPES:
        config = PashConfig.paper_default(width)
        shape = graph.copy()
        config.pipeline().run(shape, config)
        _SHAPES[label, width] = shape
    return _SHAPES[label, width]


def exhaustive_width(label, graph, counts, config, machine, stdin_lines, in_memory):
    """The reference: simulate every candidate shape, keep the cheapest."""
    sequential = simulate_graph(
        graph, counts, machine=machine.in_process(), cost_model=planner._COSTS,
        stdin_lines=stdin_lines,
    )
    best, width = sequential.total_seconds, 1
    if 0 < machine.in_process_lines < sum(sequential.edge_lines.values()):
        best = math.inf
    feed = machine.feed_seconds(stdin_lines + sum(counts[name] for name in set(in_memory)))
    for candidate in candidate_widths(min(config.width, machine.cores)):
        seconds = feed + simulate_graph(
            compiled_shape(label, graph, candidate), counts, machine=machine,
            cost_model=planner._COSTS, include_setup=True, stdin_lines=stdin_lines,
            in_memory=in_memory,
        ).total_seconds
        if seconds < best:  # ascending widths, so a tie keeps the lower one
            best, width = seconds, candidate
    return width


@pytest.mark.parametrize("cores", [1, 64])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_the_floor_decides_what_the_exhaustive_search_decides(width, cores):
    machine = dataclasses.replace(HOST, cores=cores)
    config = PashConfig.paper_default(width)
    decided_by = Counter()
    for label, graph in GRAPHS:
        for lines in (0, 20, 1_000, 50_000, 1_000_000, 10_000_000):
            counts = line_counts(graph, lines)
            for where, stdin_lines, in_memory in (
                ("disk", 0, ()),
                ("memory", 0, tuple(counts)),
                ("stdin", lines, ()),
            ):
                plan = plan_region(
                    graph, counts, config, stdin_lines=stdin_lines, machine=machine,
                    compile_candidate=lambda w: compiled_shape(label, graph, w),
                    in_memory=in_memory,
                )
                assert plan.width == exhaustive_width(
                    label, graph, counts, config, machine, stdin_lines, in_memory
                ), f"{label}, {lines} lines on {where}, width {width}, {cores} cores"
                decided_by[plan.parallel_is_floor, plan.width > 1] += 1
    if width > 1 and cores > 1:
        # Neither side of the floor is vacuous, and the search still finds wins.
        assert decided_by[True, False] and decided_by[False, False] and decided_by[False, True]
    else:
        assert set(decided_by) == {(False, False)}


@pytest.mark.parametrize("lines, compiles", [(20, []), (1_000_000, [2])])
def test_a_candidate_is_compiled_only_above_the_floor(lines, compiles):
    label, graph = next(item for item in GRAPHS if item[0].startswith("grep#"))
    machine = dataclasses.replace(HOST, cores=2)
    asked = []

    def compile_candidate(width):
        asked.append(width)
        return compiled_shape(label, graph, width)

    plan = plan_region(
        graph, line_counts(graph, lines), PashConfig.paper_default(2), machine=machine,
        compile_candidate=compile_candidate,
    )
    assert asked == compiles
    assert plan.parallel_is_floor == (not compiles)
    floor = machine.setup_seconds + machine.spawn_seconds(1)
    if compiles:
        assert plan.predicted_parallel_seconds > floor
    else:
        assert plan.predicted_sequential_seconds <= plan.predicted_parallel_seconds == floor


@pytest.mark.parametrize("cores", [2, 64])
def test_the_bound_is_under_every_shape_it_stands_for(cores):
    """``pool_floors`` is admissible: no compiled shape simulates under it."""
    machine = dataclasses.replace(HOST, cores=cores)
    for width in (2, 4):
        config = PashConfig.paper_default(width)
        widths = candidate_widths(min(width, cores))
        for label, graph in GRAPHS:
            for lines in (0, 7, 500, 50_000, 10_000_000):
                counts = line_counts(graph, lines)
                for stdin_lines, in_memory in ((0, ()), (0, tuple(counts)), (lines, ())):
                    sequential = simulate_graph(
                        graph, counts, machine=machine.in_process(), cost_model=planner._COSTS,
                        stdin_lines=stdin_lines,
                    )
                    floors = planner.pool_floors(graph, sequential, widths, machine, config)
                    for candidate in widths:
                        simulated = simulate_graph(
                            compiled_shape(label, graph, candidate), counts, machine=machine,
                            cost_model=planner._COSTS, include_setup=True, stdin_lines=stdin_lines,
                            in_memory=in_memory,
                        ).total_seconds
                        assert floors[candidate] <= simulated, (
                            f"{label}, {lines} lines, width {candidate} of {width}, {cores} cores"
                        )


@pytest.mark.parametrize("prefix", ["wf", "top-n", "unix50-0#"])
def test_the_bound_decides_the_losers_the_floor_let_through(prefix):
    """Word-frequency regions over 500 in-memory lines a file (pash-bench's
    ``script_mix``) clear the one-process floor, and lose by their lanes,
    merges and per-line work: no shape is compiled to find that out."""
    label, graph = next(item for item in GRAPHS if item[0].startswith(prefix))
    machine = dataclasses.replace(HOST, cores=2)
    counts = line_counts(graph, 500)
    asked = []
    plan = plan_region(
        graph, counts, PashConfig.paper_default(2), machine=machine,
        compile_candidate=lambda width: asked.append(width), in_memory=tuple(counts),
    )
    floor = machine.feed_seconds(sum(counts.values())) + machine.setup_seconds + machine.spawn_seconds(1)
    assert (plan.width, plan.parallel_is_floor, asked) == (1, True, [])
    assert floor < plan.predicted_sequential_seconds <= plan.predicted_parallel_seconds, label
