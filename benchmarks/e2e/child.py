"""One fresh process of the benchmark: a set-up and, in the last one, the measuring.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the program and the
working directory set to a scratch directory of its own; it writes one JSON
result file and prints nothing the runner parses.
"""

import argparse
import json
import sys
import time
from typing import NamedTuple

import harness
import inputs
import layers
import workloads


class Effort(NamedTuple):
    """How much of everything one run does; ``--smoke`` does the least."""

    min_rounds: int  #: rounds every arm gets even when the time box is spent
    traced_pairs: int  #: traced/untraced pairs, at least
    repeats: int  #: repetitions inside one probe
    probe_lines: int  #: lines of the probes' fixed input
    profile_repeats: int  #: compile profiles of the workload's scripts
    tier_passes: int  #: jit units, cluster passes, fleet registrations
    cli_launches: int


FULL_EFFORT = Effort(min_rounds=3, traced_pairs=2, repeats=3, probe_lines=100_000, profile_repeats=5,
                     tier_passes=2, cli_launches=5)
SMOKE_EFFORT = Effort(min_rounds=1, traced_pairs=1, repeats=1, probe_lines=2000, profile_repeats=1,
                      tier_passes=1, cli_launches=1)


def _calibration_metrics(calibrator, metrics) -> None:
    metrics["calib.kernel_s"] = harness.median(calibrator.kernel_runs)
    metrics["calib.factor_median"] = harness.median(calibrator.factors)
    metrics["calib.factor_spread"] = harness.relative_spread(calibrator.factors)


def measure_phase(workload, calibrator, seconds, effort, result) -> None:
    """Interleave the PaSh arm and the sequential arm until the time box ends."""
    arms = [("run", workload.run, True), ("seq", workload.seq, False)]
    samples = {"run": [], "seq": []}
    latencies = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < effort.min_rounds or time.perf_counter() < deadline:
        # Alternate which arm goes first so neither always follows the other.
        for name, work, with_cpu in arms if rounds % 2 == 0 else reversed(arms):
            sample = calibrator.timed(work, cpu=with_cpu)
            result["attempted"] += len(sample.value)
            result["failed"] += workload.failed(sample.value)
            if name == "run":
                latencies.extend(op.seconds for op in sample.value)
            # Outputs are dropped once verified: kept, they would make the
            # process's peak memory grow with the number of samples taken.
            samples[name].append(sample._replace(value=None))
        rounds += 1
    metrics = result["metrics"]
    metrics["run_s"] = harness.median([s.seconds for s in samples["run"]])
    metrics["seq_run_s"] = harness.median([s.seconds for s in samples["seq"]])
    metrics["cpu_s"] = harness.median([s.cpu for s in samples["run"]])
    metrics["raw.run_s"] = harness.median([s.raw for s in samples["run"]])
    metrics["raw.seq_run_s"] = harness.median([s.raw for s in samples["seq"]])
    metrics["run.samples"] = float(len(samples["run"]))
    metrics.update(layers.op_latency_metrics(latencies))
    _calibration_metrics(calibrator, metrics)


def traced_phase(workload, calibrator, effort, arguments, result) -> None:
    """The per-layer run: benchmark spans, the program's tracing on, and probes."""
    repeats, lines = effort.repeats, layers.probe_lines(effort.probe_lines)
    spans = harness.Spans()
    workload.spans = spans
    metrics, notes = result["metrics"], result["notes"]

    def verified(ops):
        result["attempted"] += len(ops)
        result["failed"] += workload.failed(ops)
        return ops

    metrics.update(layers.profile_compile(workload.scripts(), spans, effort.profile_repeats))

    # Traced and untraced units alternate, so their ratio is the tracing overhead.
    traced, untraced, untraced_raw, units, traced_ops = [], [], [], [], []
    workload.run(tracing=True)  # the traced tier warms up like the plain one did
    deadline = time.perf_counter() + arguments.seconds * 0.4
    pairs = 0
    while pairs < effort.traced_pairs or time.perf_counter() < deadline:
        for tracing in (True, False) if pairs % 2 == 0 else (False, True):
            sample = calibrator.timed(lambda: workload.run(tracing=tracing))
            verified(sample.value)
            if tracing:
                traced.append(sample.seconds)
                units.append([op.report for op in sample.value if op.report])
                traced_ops.extend(op._replace(output=None) for op in sample.value)
            else:
                untraced.append(sample.seconds)
                untraced_raw.append(sample.raw)
        pairs += 1
    metrics["obs.tracing_overhead_frac"] = harness.median(traced) / harness.median(untraced) - 1.0
    metrics["raw.run_s"] = harness.median(untraced_raw)
    metrics["raw.seq_run_s"] = calibrator.timed(workload.seq).raw
    metrics.update(layers.fold_reports(units))
    metrics.update(layers.op_latency_metrics([op.seconds for op in traced_ops]))

    # A pass that compiles every region, then one that hits the plan cache.
    workload.jit_unit()  # untimed: a session's first unit spawns its pool
    hits, misses = [], []
    for _ in range(effort.tier_passes):
        verified(workload.jit_unit())
        hits.append(workload.hit_seconds)
        misses.append(workload.miss_seconds)
    metrics["jit.hit_round_s"], metrics["jit.miss_round_s"] = harness.median(hits), harness.median(misses)

    # The same script (or, for the script workloads, grep-light) on the cluster tier.
    cluster = [calibrator.timed(workload.cluster) for _ in range(effort.tier_passes)]
    for sample in cluster:
        verified(sample.value)
    metrics["cluster.run_s"] = harness.median([s.seconds for s in cluster])
    cluster_counters = (cluster[-1].value[0].report or {}).get("metrics", {})
    metrics["cluster.remote_tasks"] = cluster_counters.get("remote_tasks", 0)
    metrics["cluster.requeued_tasks"] = cluster_counters.get("requeued_tasks", 0)

    def guard(names, probe):
        layers.guarded(metrics, notes, names, probe)

    guard(["commands.%s_mlines_s" % name for name in ("sort", "grep", "tr", "cut", "uniq")],
          lambda: layers.probe_commands(lines, repeats))
    guard(["runtime.split_mb_s", "runtime.agg_merge_sort_mb_s", "runtime.eager_spill_mb_s",
           "runtime.interpreter_self_s"], lambda: layers.probe_runtime(lines, repeats))
    guard(["engine.channel_mb_s", "engine.spill_mb_s", "engine.pool_dispatch_ms"],
          lambda: layers.probe_engine(lines, repeats))
    guard(["jit.cache_hit_us", "jit.cache_miss_us"], lambda: layers.probe_jit(repeats))
    guard(["cluster.wire_mb_s"], lambda: layers.probe_cluster_wire(lines, repeats))
    guard(["cluster.register_ms"], lambda: layers.probe_cluster_register(effort.tier_passes))
    guard(["service.admission_us", "service.ping_ms", "service.exec_ms", "service.queue_wait_ms",
           "service.rejected", "service.plan_cache_hit_ratio"], lambda: layers.probe_service(repeats))
    if workload.name == "service_closed":
        metrics.update(layers.service_metrics_from_jobs(traced_ops, workload.stats(tracing=True)))
    guard(["obs.null_hook_ns", "resilience.null_hook_ns"], layers.probe_hooks)
    metrics.update(layers.probe_cli_cold(effort.cli_launches, inputs.small_files(arguments.seed, 500)))

    _calibration_metrics(calibrator, metrics)
    events = harness.write_trace(arguments.trace_file, spans, layers.program_span_rows(units))
    notes.append("trace: %d events in %s" % (events, arguments.trace_file))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--trace-file", required=True, help="where a traced run writes its Chrome trace")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the runner's perf_counter() when it started this process")
    arguments = parser.parse_args(argv)

    calibrator = harness.Calibrator()
    kernel_time = calibrator.warm_up()
    sizes, effort = (workloads.SMOKE, SMOKE_EFFORT) if arguments.smoke else (workloads.FULL, FULL_EFFORT)
    workload = workloads.WORKLOADS[arguments.workload](arguments.seed, sizes)
    result = {"attempted": 0, "failed": 0, "metrics": {}, "notes": [], "input_bytes": 0}
    metrics = result["metrics"]
    try:
        workload.setup()
        # perf_counter is one clock for every process of the host, so the
        # set-up is timed from the spawn: interpreter start and imports count.
        setup_raw = time.perf_counter() - arguments.spawned_at - kernel_time
        metrics["setup_s"] = setup_raw * calibrator.close_bracket()
        metrics["raw.setup_s"] = setup_raw
        metrics["host.sh_run_s"] = workload.host_seconds
        result["input_bytes"] = workload.input_bytes
        if arguments.phase == "measure":
            # A smoke run does both kinds of run in its one child.
            if not arguments.trace or arguments.smoke:
                measure_phase(workload, calibrator, arguments.seconds, effort, result)
            if arguments.trace or arguments.smoke:
                traced_phase(workload, calibrator, effort, arguments, result)
            metrics["peak_rss_mb"] = harness.tree_peak_rss_mb()
    finally:
        workload.close()
    with open(arguments.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
