"""Tests for the cost model and machine model."""

from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, RelayNode, SplitNode
from repro.simulator.costs import CommandCost, CostModel, default_cost_model
from repro.simulator.machine import MachineModel


def test_command_cost_linear_work():
    cost = CommandCost(seconds_per_line=1e-6, startup_seconds=0.0)
    assert cost.work_seconds(1_000_000) == 1.0


def test_command_cost_nlogn_work_grows_superlinearly():
    cost = CommandCost(seconds_per_line=1e-6, complexity="nlogn", startup_seconds=0.0)
    assert cost.work_seconds(1_000_000) > 10 * cost.work_seconds(100_000) / 2


def test_output_lines_selectivity_and_fixed():
    assert CommandCost(selectivity=0.5).output_lines(100) == 50
    assert CommandCost(fixed_output_lines=1).output_lines(100) == 1


def test_default_model_covers_core_commands():
    model = default_cost_model()
    for name in ("grep", "sort", "uniq", "wc", "tr", "cut", "head", "cat"):
        assert name in model.command_costs


def test_sort_is_blocking_and_nlogn():
    model = default_cost_model()
    node = CommandNode(name="sort", arguments=["-rn"])
    cost = model.cost_for(node)
    assert cost.blocking
    assert cost.complexity == "nlogn"


def test_sort_merge_flag_is_streaming():
    model = default_cost_model()
    cost = model.cost_for(CommandNode(name="sort", arguments=["-m"]))
    assert not cost.blocking
    assert cost.complexity == "linear"


def test_head_count_flag_bounds_output():
    model = default_cost_model()
    cost = model.cost_for(CommandNode(name="head", arguments=["-n", "5"]))
    assert cost.fixed_output_lines == 5
    attached = model.cost_for(CommandNode(name="head", arguments=["-n5"]))
    assert attached.fixed_output_lines == 5


def test_grep_count_flag_is_blocking_single_line():
    model = default_cost_model()
    cost = model.cost_for(CommandNode(name="grep", arguments=["-c", "x"]))
    assert cost.blocking and cost.fixed_output_lines == 1


def test_grep_invert_flag_flips_selectivity():
    model = default_cost_model()
    plain = model.cost_for(CommandNode(name="grep", arguments=["x"]))
    inverted = model.cost_for(CommandNode(name="grep", arguments=["-v", "x"]))
    assert abs(plain.selectivity + inverted.selectivity - 1.0) < 0.1


def test_xargs_inherits_wrapped_command_cost():
    model = default_cost_model()
    wrapped = model.cost_for(CommandNode(name="xargs", arguments=["-n", "1", "fetch-station"]))
    direct = model.cost_for(CommandNode(name="fetch-station"))
    assert wrapped.seconds_per_line == direct.seconds_per_line
    assert wrapped.selectivity == direct.selectivity


def test_unknown_command_uses_default_cost():
    model = default_cost_model()
    cost = model.cost_for(CommandNode(name="mystery-tool"))
    assert cost is model.default or cost.seconds_per_line == model.default.seconds_per_line


def test_helper_node_costs():
    model = default_cost_model()
    assert model.cost_for(CatNode()).seconds_per_line < 1e-7
    assert model.cost_for(RelayNode()).seconds_per_line < 1e-7
    assert model.cost_for(SplitNode(strategy="general")).blocking
    assert not model.cost_for(SplitNode(strategy="input-aware")).blocking
    assert model.cost_for(AggregatorNode(aggregator="merge_sort")).blocking


def test_override_returns_new_model():
    model = default_cost_model()
    updated = model.override("grep", seconds_per_line=1.0)
    assert updated.command_costs["grep"].seconds_per_line == 1.0
    assert model.command_costs["grep"].seconds_per_line != 1.0


def test_machine_disk_and_spawn_costs():
    machine = MachineModel(disk_lines_per_second=1000, disk_parallel_scaling=2.0)
    assert machine.disk_seconds(1000, readers=1) == 1.0
    assert machine.disk_seconds(1000, readers=4) == 0.5
    assert machine.spawn_seconds(10) == 10 * machine.process_spawn_seconds


def test_machine_presets():
    assert MachineModel.paper_testbed().cores == 64
    assert MachineModel.laptop().cores < 64


# ---------------------------------------------------------------------------
# The second pair of tables: this host, our kernels (what the planner reads)
# ---------------------------------------------------------------------------


def test_this_host_counts_the_usable_cores(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
    host = MachineModel.this_host()
    assert host.cores == 3
    assert host.process_spawn_seconds < MachineModel.paper_testbed().process_spawn_seconds
    assert host.channel_lines_per_second > 0 and not host.relays_are_processes


def test_in_process_is_one_thread_with_cheap_edges_and_no_dispatch():
    host = MachineModel.this_host()
    inline = host.in_process()
    assert inline.cores == 1
    assert inline.process_spawn_seconds < host.process_spawn_seconds / 10
    assert inline.channel_seconds(10**6) < host.channel_seconds(10**6) / 5


def test_the_paper_machine_charges_nothing_new():
    paper = MachineModel.paper_testbed()
    assert paper.channel_seconds(10**9) == 0.0
    assert paper.feed_seconds(10**9) == 0.0
    assert paper.relays_are_processes and paper.in_process_lines == 0


def test_python_cost_model_holds_the_measured_rates():
    import math

    from repro.simulator.costs import (
        CALIBRATION_LINES,
        PYTHON_KERNEL_MLINES_S,
        python_cost_model,
    )

    model = python_cost_model()
    for name in ("grep", "tr", "cut", "uniq"):
        cost = model.command_costs[name]
        measured = CALIBRATION_LINES / (PYTHON_KERNEL_MLINES_S[name] * 1e6)
        assert math.isclose(cost.work_seconds(CALIBRATION_LINES) - cost.startup_seconds, measured)
    sort = model.command_costs["sort"]
    assert sort.complexity == "nlogn" and sort.blocking
    assert math.isclose(
        sort.work_seconds(CALIBRATION_LINES) - sort.startup_seconds,
        CALIBRATION_LINES / (PYTHON_KERNEL_MLINES_S["sort"] * 1e6),
    )
    # Shapes are the GNU table's; only the rates differ.
    gnu = default_cost_model()
    assert model.command_costs["grep"].selectivity == gnu.command_costs["grep"].selectivity
    assert model.command_costs["grep"].startup_seconds < gnu.command_costs["grep"].startup_seconds
    assert set(model.command_costs) - {"tr -cs"} == set(gnu.command_costs)


def test_python_cost_model_knows_the_slow_tr_and_the_tokenizer():
    from repro.simulator.costs import python_cost_model

    model = python_cost_model()
    plain = model.cost_for(CommandNode(name="tr", arguments=["A-Z", "a-z"]))
    squeeze = model.cost_for(CommandNode(name="tr", arguments=["-cs", "A-Za-z", "\\n"]))
    assert squeeze.seconds_per_line > 5 * plain.seconds_per_line
    assert plain.selectivity == 1.0 and squeeze.selectivity > 1.0
    # Squeezing or complementing alone is one translate or replace: the plain rate.
    for arguments in (["-s", " "], ["-cd", "a-z"], ["-d", "[:punct:]"]):
        assert model.cost_for(CommandNode(name="tr", arguments=arguments)) == plain
    # The GNU-shaped table the figures use is untouched by either rule.
    gnu = default_cost_model()
    assert gnu.cost_for(CommandNode(name="tr", arguments=["-cs", "A-Za-z", "\\n"])) == gnu.cost_for(
        CommandNode(name="tr", arguments=["A-Z", "a-z"])
    )
