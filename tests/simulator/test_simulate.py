"""Tests for the performance simulator: speedup shapes, not absolute numbers."""

import dataclasses

import pytest

from repro.api import PashConfig, optimize
from repro.dfg.builder import DFGBuilder, translate_script
from repro.dfg.elision import plan_elisions
from repro.simulator.costs import default_cost_model
from repro.simulator.machine import MachineModel
from repro.simulator.simulate import simulate_graph, simulate_script_graphs

MACHINE = MachineModel.paper_testbed()


def chunked(total, width, prefix="in"):
    per = total // width
    return {f"{prefix}{i}.txt": per for i in range(width)}


def build(script):
    return DFGBuilder().build_from_script(script)


def simulated_speedup(script, files, width, config=None, cost_model=None):
    baseline = simulate_graph(build(script), files, MACHINE, cost_model=cost_model)
    graph = build(script)
    optimize(graph, config or PashConfig.paper_default(width, fuse_stages=False))
    parallel = simulate_graph(graph, files, MACHINE, cost_model=cost_model, include_setup=True)
    return baseline.total_seconds / parallel.total_seconds


def test_sequential_pipeline_bounded_by_slowest_stage():
    files = {"in0.txt": 10_000_000}
    result = simulate_graph(build("cat in0.txt | grep x | tr a b | cut -c 1-3"), files, MACHINE)
    # Task parallelism: far less than the sum of per-stage costs.
    assert result.total_seconds < result.work_seconds
    assert result.critical_path_seconds > 0


def test_stateless_pipeline_scales_with_width():
    total = 64_000_000
    speedups = []
    for width in (2, 8, 32):
        files = chunked(total, width)
        script = "cat " + " ".join(files) + " | grep light | tr A-Z a-z > out.txt"
        speedups.append(simulated_speedup(script, files, width))
    assert speedups[0] > 1.5
    assert speedups[0] < speedups[1] < speedups[2]


def test_sort_speedup_saturates():
    total = 96_000_000
    files16 = chunked(total, 16)
    files64 = chunked(total, 64)
    sixteen = simulated_speedup(
        "cat " + " ".join(files16) + " | sort > out.txt", files16, 16
    )
    sixty_four = simulated_speedup(
        "cat " + " ".join(files64) + " | sort > out.txt", files64, 64
    )
    assert sixteen > 3
    # Sort's merge phase limits scaling: 64x is not 4x better than 16x.
    assert sixty_four < sixteen * 2


def test_eager_beats_no_eager_for_sort():
    total = 96_000_000
    files = chunked(total, 16)
    script = "cat " + " ".join(files) + " | sort > out.txt"
    eager = simulated_speedup(script, files, 16, PashConfig.parallel_only(16, fuse_stages=False))
    lazy = simulated_speedup(script, files, 16, PashConfig.no_eager(16, fuse_stages=False))
    assert eager > lazy


def test_eager_beats_blocking_eager():
    total = 96_000_000
    files = chunked(total, 16)
    script = "cat " + " ".join(files) + " | sort > out.txt"
    eager = simulated_speedup(script, files, 16, PashConfig.parallel_only(16, fuse_stages=False))
    blocking = simulated_speedup(script, files, 16, PashConfig.blocking_eager(16, fuse_stages=False))
    assert eager >= blocking


def test_split_helps_pipelines_with_pure_prefix():
    total = 48_000_000
    files = chunked(total, 16)
    script = (
        "cat " + " ".join(files) + " | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 10 > o.txt"
    )
    with_split = simulated_speedup(script, files, 16, PashConfig.paper_default(16, fuse_stages=False))
    without_split = simulated_speedup(script, files, 16, PashConfig.parallel_only(16, fuse_stages=False))
    assert with_split > without_split


def test_tiny_scripts_see_slowdown_from_setup():
    files = {"in0.txt": 500, "in1.txt": 500}
    script = "cat in0.txt in1.txt | grep light | head -n1 > out.txt"
    speedup = simulated_speedup(script, files, 16)
    assert speedup < 1.0


def test_io_bound_script_gets_modest_speedup():
    total = 400_000_000
    files = chunked(total, 16)
    cost_model = default_cost_model().override("grep", seconds_per_line=4e-8)
    script = "cat " + " ".join(files) + " | grep light > out.txt"
    speedup = simulated_speedup(script, files, 16, cost_model=cost_model)
    assert 1.0 < speedup < 6.0


def test_more_processes_cost_more_spawn_time():
    files = chunked(1_000_000, 4)
    script = "cat " + " ".join(files) + " | grep x > out.txt"
    narrow = build(script)
    optimize(narrow, PashConfig.paper_default(4, fuse_stages=False))
    wide = build(script)
    optimize(wide, PashConfig.paper_default(4, fuse_stages=False))
    result = simulate_graph(narrow, files, MACHINE, include_setup=True)
    assert result.process_count == len(narrow.nodes)


def test_simulate_script_graphs_accumulates_regions_and_files():
    script = (
        "cat a0.txt a1.txt | tr A-Z a-z | sort > sorted_a.txt\n"
        "cat sorted_a.txt | uniq -c | wc -l > out.txt"
    )
    translation = translate_script(script)
    graphs = [region.dfg for region in translation.regions]
    files = {"a0.txt": 1_000_000, "a1.txt": 1_000_000}
    result = simulate_script_graphs(graphs, files, machine=MACHINE)
    assert result.total_seconds > 0
    assert result.process_count == sum(len(g.nodes) for g in graphs)


def test_speedup_over_helper():
    files = chunked(8_000_000, 8)
    script = "cat " + " ".join(files) + " | grep light > out.txt"
    baseline = simulate_graph(build(script), files, MACHINE)
    graph = build(script)
    optimize(graph, PashConfig.paper_default(8, fuse_stages=False))
    parallel = simulate_graph(graph, files, MACHINE, include_setup=True)
    assert parallel.speedup_over(baseline) == baseline.total_seconds / parallel.total_seconds


def test_this_host_bills_each_edge_once_and_skips_eager_relays():
    """The pool's relays are bridged out of the plan: no process, no work;
    every other edge costs its consumer one channel crossing.  The tail
    ``sort -m`` is gathered: no process and no crossing either, its work is
    the driver's and starts when the last branch is in."""
    from repro.simulator.costs import python_cost_model

    graph = translate_script("cat in.txt | sort > out.txt").regions[0].dfg
    config = PashConfig.paper_default(2)
    config.pipeline().run(graph, config)
    relays = [node for node in graph.nodes.values() if node.kind == "relay"]
    assert relays, "the eager-relays pass inserted nothing; the test exercises nothing"
    (merge,) = [node for node in graph.nodes.values() if node.kind == "aggregator"]

    host = MachineModel.this_host()
    counts = {"in.txt": 100_000}
    held = {"in_memory": ["in.txt"]}  # on disk, the split and its cat go too (below)
    costs = python_cost_model()
    billed = simulate_graph(graph, counts, machine=host, cost_model=costs, **held)
    assert billed.process_count == len(graph.nodes) - len(relays) - 1
    assert all(billed.node_timings[relay.node_id].work == 0.0 for relay in relays)
    merging = billed.node_timings[merge.node_id]
    assert merging.work == costs.cost_for(merge).work_seconds(100_000)
    branches = [billed.node_timings[graph.edge(edge_id).source].finish for edge_id in merge.inputs]
    assert merging.start == max(branches) and merging.finish == merging.start + merging.work
    assert billed.critical_path_seconds == merging.finish

    free = dataclasses.replace(host, channel_lines_per_second=0.0)
    unbilled = simulate_graph(graph, counts, machine=free, cost_model=costs, **held)
    relay_ids = {relay.node_id for relay in relays}
    edges = 0
    for edge_id, lines in billed.edge_lines.items():
        edge = graph.edge(edge_id)
        # A branch of the merge is paid for by the `sort` that delivers it;
        # the merged output crosses nothing (the driver already holds it).
        payer = edge.source if edge.is_graph_output else edge.target
        if payer not in relay_ids and edge.source != merge.node_id:
            edges += lines
    assert billed.work_seconds - unbilled.work_seconds == pytest.approx(host.channel_seconds(edges))

    paper = simulate_graph(graph, counts, machine=MachineModel.paper_testbed())
    assert paper.process_count == len(graph.nodes)

    # A fused stage blocks, and is n log n, when its tail is.
    fused = translate_script("cat in.txt | tr a-z A-Z | sort > out.txt").regions[0].dfg
    config.pipeline().run(fused, config)
    (stage, _) = [node for node in fused.nodes.values() if node.kind == "fused"]
    cost = costs.cost_for(stage)
    assert (stage.label(), cost.blocking, cost.complexity) == ("tr a-z A-Z | sort", True, "nlogn")
    members = sum(costs.cost_for(member).work_seconds(100_000) for member in stage.nodes)
    assert cost.work_seconds(100_000) == pytest.approx(members, rel=1e-3)


def test_this_host_bills_a_file_backed_split_and_a_tail_cat_as_no_process():
    """What the scheduler leaves out of its plan the simulator leaves out of
    its bill: over an on-disk file the split and the ``cat`` feeding it, and a
    cat into a graph output, cost no process and no work, and do not block;
    the inline lane costs no process."""
    from repro.simulator.costs import python_cost_model

    graph = translate_script("cat in.txt | tr a-z A-Z | grep x > out.txt").regions[0].dfg
    config = PashConfig.paper_default(2)
    config.pipeline().run(graph, config)
    by_kind = {}
    for node in graph.nodes.values():
        by_kind.setdefault(node.kind, []).append(node)
    (split,), (tail,) = by_kind["split"], by_kind["cat"]
    (head,) = [node for node in by_kind["command"] if node.label() == "cat"]

    host = MachineModel.this_host()
    counts = {"in.txt": 100_000}
    costs = python_cost_model()
    on_disk = simulate_graph(graph, counts, machine=host, cost_model=costs)
    held = simulate_graph(graph, counts, machine=host, cost_model=costs, in_memory=["in.txt"])
    workers = len(graph.nodes) - len(by_kind["relay"])
    assert held.process_count == workers - 1  # the tail cat is gathered wherever the input lives
    # On disk the split and its cat go too, and the last lane — a range in,
    # collected out — is the driver's own: its work, with no channel crossing.
    assert on_disk.process_count == workers - 4
    for node in (split, head, tail):
        assert on_disk.node_timings[node.node_id].work == 0.0
    inline = graph.node(plan_elisions(graph, {edge.edge_id for edge in graph.input_edges()}).inline)
    lane = on_disk.node_timings[inline.node_id]
    assert lane.work == costs.cost_for(inline).work_seconds(lane.input_lines)
    assert held.node_timings[inline.node_id].work > lane.work
    assert held.node_timings[split.node_id].work > 0.0
    # Not a barrier: the branches start with the file, not after a split's last byte.
    assert on_disk.node_timings[split.node_id].available < held.node_timings[split.node_id].available
    assert on_disk.total_seconds < held.total_seconds

    paper = simulate_graph(graph, counts, machine=MachineModel.paper_testbed())
    assert paper.process_count == len(graph.nodes)
