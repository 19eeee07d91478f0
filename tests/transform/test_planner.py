"""Generated tests for the region planner (``repro.transform.planner``).

The planner is a pure function of (graph, line counts, cores), so every
property here is checked over the sequential graphs of the paper's own
scripts with machines, widths and sizes drawn from a seed.  Seeds are fixed
so CI is deterministic; ``PASH_TEST_SEED`` widens coverage and every failure
message carries the seed that reproduces it.
"""

import dataclasses
import os
import random

import pytest

from repro.api import PashConfig
from repro.dfg.builder import translate_script
from repro.simulator.machine import MachineModel
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
