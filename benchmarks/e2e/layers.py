"""Per-layer numbers of the traced run (layer = package name under ``repro``).

Three sources, none of which edits the program:

* :func:`profile_compile` — benchmark spans around the public calls that turn
  a script into a plan (``shell.parse``, ``translate_script``,
  ``api.optimize``, ``CompiledScript.emit``, ``Pash.compile``), over the
  workload's own scripts;
* :func:`fold_reports` — counters the program already returns for the traced
  units of work (``EngineMetrics``, ``JitReport``, its own span rows);
* the ``probe_*`` functions — direct calls into one layer's public functions on
  a fixed input, the same in every workload, so a layer's speed is visible even
  where the workload barely uses it.

Probes reach below the front door, so each runs under :func:`guarded`: after a
refactor that moves a name, the probe reports 0 with a note instead of taking
the whole benchmark down.
"""

import os
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List

import corpus
import inputs
from harness import Spans, median, percentile

MB = float(1 << 20)
PASS_NAMES = ["split-insertion", "parallelize", "aggregation-lowering", "eager-relays", "fuse-stages"]
SCHEDULER_PHASES = ["plan", "spawn", "dispatch", "collect"]


def guarded(
    metrics: Dict[str, float], notes: List[str], names: List[str], probe: Callable[[], Dict[str, float]]
) -> None:
    """Run one probe; on an API that moved, record zeros and say so."""
    try:
        metrics.update(probe())
    except (ImportError, AttributeError, TypeError) as exc:
        notes.append("probe for %s unavailable: %s: %s" % (names[0], type(exc).__name__, exc))
        for name in names:
            metrics.setdefault(name, 0.0)


def _timed(work: Callable[[], Any], repeats: int) -> float:
    """Median wall seconds of ``work`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        work()
        samples.append(time.perf_counter() - started)
    return median(samples)


def probe_lines(count: int) -> List[str]:
    """``count`` distinct text lines, cheaply (fixed seed: probes never vary)."""
    rng = random.Random(20210426)
    pool = inputs.text_lines(rng, 2048)
    return ["%s %06x" % (pool[rng.randrange(2048)], index) for index in range(count)]


# ---------------------------------------------------------------------------
# Compile-side profile of the workload's scripts
# ---------------------------------------------------------------------------


def profile_compile(scripts: List[str], spans: Spans, repeats: int) -> Dict[str, float]:
    from repro import api
    from repro.api import Pash, PashConfig
    from repro.dfg.builder import translate_script
    from repro.shell.parser import parse

    config = PashConfig.paper_default(2)
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for repeat in range(repeats):
        mark = len(spans.rows)
        tally = dict.fromkeys(
            ["scripts", "nodes_built", "regions_found", "regions_rejected", "nodes_after", "parallelized",
             "emit_bytes"],
            0,
        )
        pass_ms = dict.fromkeys(PASS_NAMES, 0.0)
        for index, script in enumerate(scripts):
            op = "compile:%d.%d" % (repeat, index)
            with spans.span("shell.parse", "shell", op=op):
                ast = parse(script)
            with spans.span("translate_script", "dfg", op=op):
                translation = translate_script(ast)
            tally["scripts"] += 1
            tally["regions_found"] += len(translation.regions) + len(translation.rejected)
            tally["regions_rejected"] += len(translation.rejected)
            for region in translation.regions:
                tally["nodes_built"] += len(region.dfg.nodes)
                with spans.span("api.optimize", "transform", op=op):
                    report = api.optimize(region.dfg, config)
                tally["nodes_after"] += len(region.dfg.nodes)
                tally["parallelized"] += report.parallelized_count
                for name in PASS_NAMES:
                    pass_ms[name] += report.pass_seconds.get(name, 0.0) * 1000.0
            with spans.span("Pash.compile", "api", op=op):
                compiled = Pash(config).compile(script)
            with spans.span("CompiledScript.emit", "backend", op=op):
                text = compiled.emit(config.emitter_options())
            tally["emit_bytes"] += len(text)
        rows = spans.rows[mark:]

        def total(name: str) -> float:
            return sum(row["duration_us"] for row in rows if row["name"] == name) / 1000.0

        staged = total("shell.parse") + total("translate_script") + total("api.optimize") + total("CompiledScript.emit")
        sample = {
            "shell.parse_ms": total("shell.parse"),
            "dfg.build_ms": total("translate_script"),
            "transform.optimize_ms": total("api.optimize"),
            "backend.emit_ms": total("CompiledScript.emit"),
            "api.compile_ms": total("Pash.compile"),
            # What the front door adds on top of the stages it calls.
            "api.compile_self_ms": total("Pash.compile") - staged,
        }
        for name in PASS_NAMES:
            sample["transform.pass.%s_ms" % name] = pass_ms[name]
        for name, value in sample.items():
            totals.setdefault(name, []).append(value)
        counts = {
            "shell.scripts_parsed": tally["scripts"],
            "dfg.nodes_built": tally["nodes_built"],
            "dfg.regions_found": tally["regions_found"],
            "dfg.regions_rejected": tally["regions_rejected"],
            "transform.nodes_after": tally["nodes_after"],
            "transform.commands_parallelized": tally["parallelized"],
            "backend.emit_bytes": tally["emit_bytes"],
        }
    metrics = {name: median(values) for name, values in totals.items()}
    metrics.update(counts)
    return metrics


# ---------------------------------------------------------------------------
# Counters the program returned for the traced units
# ---------------------------------------------------------------------------


def fold_reports(units: List[List[Dict[str, Any]]]) -> Dict[str, float]:
    """Per-unit medians of the engine/jit counters in the ops' reports.

    ``units`` holds, per traced unit of work, the report dicts of its ops
    (``EngineMetrics.to_dict()``, ``JitReport.to_dict()``, span rows).
    """
    per_unit: Dict[str, List[float]] = {}
    for reports in units:
        unit = dict.fromkeys(
            [
                "engine.spawn_ms", "engine.processes_spawned", "engine.processes_reused", "engine.bytes_moved",
                "engine.spilled_bytes", "engine.spill_events", "engine.peak_buffered_bytes", "engine.edges_direct",
                "engine.edges_buffered", "engine.relays_elided", "engine.stages_fused", "engine.node_compute_s",
                "engine.node_wait_s", "engine.worker_ms", "jit.regions_seen", "jit.regions_compiled",
                "jit.cache_hits", "jit.fallbacks", "resilience.runs_retried",
                "resilience.degraded_runs", "obs.spans_recorded",
            ]
            + ["engine.scheduler_%s_ms" % phase for phase in SCHEDULER_PHASES],
            0.0,
        )
        utilization = []
        # Concurrent service jobs share one tracer, so a job's report can
        # carry its neighbour's spans too: count each span id once per unit.
        seen = set()
        for report in reports:
            metrics = report.get("metrics") or {}
            derived = metrics.get("derived") or {}
            unit["engine.spawn_ms"] += metrics.get("spawn_seconds", 0.0) * 1000.0
            unit["engine.processes_spawned"] += metrics.get("processes_spawned", 0)
            unit["engine.processes_reused"] += metrics.get("processes_reused", 0)
            unit["engine.bytes_moved"] += derived.get("total_bytes_moved", 0)
            unit["engine.spilled_bytes"] += derived.get("total_spilled_bytes", 0)
            unit["engine.spill_events"] += derived.get("total_spill_events", 0)
            unit["engine.peak_buffered_bytes"] = max(
                unit["engine.peak_buffered_bytes"], derived.get("peak_buffered_bytes", 0)
            )
            unit["engine.edges_direct"] += metrics.get("edges_direct", 0)
            unit["engine.edges_buffered"] += metrics.get("edges_buffered", 0)
            unit["engine.relays_elided"] += metrics.get("relays_elided", 0)
            unit["engine.stages_fused"] += metrics.get("stages_fused", 0)
            compute = derived.get("total_compute_seconds", 0.0)
            unit["engine.node_compute_s"] += compute
            unit["engine.node_wait_s"] += derived.get("total_node_seconds", 0.0) - compute
            unit["resilience.runs_retried"] += metrics.get("runs_retried", 0)
            unit["resilience.degraded_runs"] += metrics.get("degraded_runs", 0)
            if metrics.get("nodes"):
                utilization.append(derived.get("worker_utilization", 0.0))
            jit = report.get("jit") or {}
            unit["jit.regions_seen"] += jit.get("regions_seen", 0)
            unit["jit.regions_compiled"] += jit.get("regions_compiled", 0)
            unit["jit.cache_hits"] += jit.get("cache_hits", 0)
            unit["jit.fallbacks"] += jit.get("fallbacks", 0)
            for row in report.get("span_records") or ():
                if row["span_id"] in seen:
                    continue
                seen.add(row["span_id"])
                unit["obs.spans_recorded"] += 1
                if row["category"] == "worker":
                    unit["engine.worker_ms"] += row["duration_us"] / 1000.0
                elif row["name"].startswith("scheduler:"):
                    key = "engine.scheduler_%s_ms" % row["name"].split(":", 1)[1]
                    if key in unit:
                        unit[key] += row["duration_us"] / 1000.0
        unit["engine.utilization"] = median(utilization)
        for name, value in unit.items():
            per_unit.setdefault(name, []).append(value)
    return {name: median(values) for name, values in per_unit.items()}


def program_span_rows(units: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Every distinct span row the program returned for the traced units."""
    rows = {}
    for reports in units:
        for report in reports:
            for row in report.get("span_records") or ():
                rows.setdefault(row["span_id"], row)
    return list(rows.values())


# ---------------------------------------------------------------------------
# Fixed probes, one per layer
# ---------------------------------------------------------------------------


def probe_commands(lines: List[str], repeats: int) -> Dict[str, float]:
    from repro.commands.registry import standard_registry

    registry = standard_registry()
    ordered = sorted(line.split(" ", 1)[0] for line in lines)
    cases = {
        "sort": ([], lines),
        "grep": (["-v", inputs.MARKER], lines),
        "tr": (["A-Z", "a-z"], lines),
        "cut": (["-d", " ", "-f", "1-4"], lines),
        "uniq": (["-c"], ordered),
    }
    metrics = {}
    for name, (arguments, stream) in cases.items():
        seconds = _timed(lambda: registry.run(name, arguments, [stream]), repeats)
        metrics["commands.%s_mlines_s" % name] = len(stream) / seconds / 1e6
    return metrics


def probe_runtime(lines: List[str], repeats: int) -> Dict[str, float]:
    from repro.runtime.aggregators import merge_sort
    from repro.runtime.eager import EagerBuffer
    from repro.runtime.interpreter import ShellInterpreter
    from repro.runtime.split import split_stream
    from repro.runtime.streams import VirtualFileSystem

    megabytes = sum(len(line) + 1 for line in lines) / MB
    halves = [sorted(lines[: len(lines) // 2]), sorted(lines[len(lines) // 2 :])]

    def spill() -> None:
        buffer = EagerBuffer(spill_threshold=64 << 10, spill_directory=".")
        buffer.write_all(lines)
        buffer.close()
        buffer.drain()

    def interpret() -> None:
        # A no-op command over the lines: what the interpreter itself costs.
        ShellInterpreter(filesystem=VirtualFileSystem({"probe.txt": lines})).run_script("cat probe.txt | cat")

    return {
        "runtime.split_mb_s": megabytes / _timed(lambda: split_stream(lines, 2), repeats),
        "runtime.agg_merge_sort_mb_s": megabytes / _timed(lambda: merge_sort(halves, []), repeats),
        "runtime.eager_spill_mb_s": megabytes / _timed(spill, repeats),
        "runtime.interpreter_self_s": _timed(interpret, repeats),
    }


def probe_engine(lines: List[str], repeats: int) -> Dict[str, float]:
    from repro import api
    from repro.api import PashConfig
    from repro.engine.channels import Channel, SpillBuffer, encode_lines
    from repro.runtime.executor import ExecutionEnvironment
    from repro.runtime.streams import VirtualFileSystem

    payload = encode_lines(lines)
    megabytes = len(payload) / MB

    def channel() -> None:
        pipe = Channel()
        writer, reader = pipe.writer(), pipe.reader()

        def produce() -> None:
            writer.write_lines(lines)
            writer.close()

        producer = threading.Thread(target=produce)
        producer.start()
        received = reader.read_lines()
        producer.join()
        reader.close()
        if len(received) != len(lines):
            raise RuntimeError("channel probe lost lines")

    def spill() -> None:
        buffer = SpillBuffer(spill_threshold=64 << 10, directory=".")
        for offset in range(0, len(payload), 64 << 10):
            buffer.append(payload[offset : offset + (64 << 10)])
        buffer.close()
        if sum(len(chunk) for chunk in buffer) != len(payload):
            raise RuntimeError("spill probe lost bytes")

    config = PashConfig.paper_default(2, backend="parallel")
    tiny = {"tiny.txt": ["alpha", "beta", "gamma", "delta"]}

    def dispatch() -> None:
        api.run(
            "cat tiny.txt | grep a",
            config=config,
            backend="parallel",
            environment=ExecutionEnvironment(filesystem=VirtualFileSystem(tiny)),
        )

    dispatch()  # grow the pool before timing: the probe is the warm path
    return {
        "engine.channel_mb_s": megabytes / _timed(channel, repeats),
        "engine.spill_mb_s": megabytes / _timed(spill, repeats),
        "engine.pool_dispatch_ms": _timed(dispatch, repeats * 5) * 1000.0,
    }


def probe_jit(repeats: int) -> Dict[str, float]:
    from repro.api import Pash, PashConfig
    from repro.jit.cache import PlanCache
    from repro.runtime.executor import ExecutionEnvironment
    from repro.runtime.streams import VirtualFileSystem

    # The inner engine is the in-process interpreter on a four-line file, so
    # what is timed is the driver: fingerprint, cache lookup, (compile), run.
    config = PashConfig.paper_default(2, backend="jit", jit_inner_backend="interpreter")
    tiny = {"tiny.txt": ["alpha", "beta", "gamma", "delta"]}
    session = Pash(config)
    kept = PlanCache()

    def run(cache) -> None:
        session.run(
            "cat tiny.txt | grep a | sort",
            environment=ExecutionEnvironment(filesystem=VirtualFileSystem(tiny)),
            cache=cache,
        )

    run(kept)
    return {
        "jit.cache_hit_us": _timed(lambda: run(kept), repeats * 10) * 1e6,
        "jit.cache_miss_us": _timed(lambda: run(PlanCache()), repeats * 10) * 1e6,
    }


def probe_cluster_wire(lines: List[str], repeats: int) -> Dict[str, float]:
    from repro.cluster.protocol import MSG_EDGE_END, MessageSocket, send_edge_stream
    from repro.engine.channels import iter_encoded_chunks

    frames = list(iter_encoded_chunks(lines))
    megabytes = sum(len(frame) for frame in frames) / MB

    def wire() -> None:
        left, right = socket.socketpair()
        sender, receiver = MessageSocket(left), MessageSocket(right)
        producer = threading.Thread(target=send_edge_stream, args=(sender, 1, 1, frames))
        producer.start()
        received = 0
        while True:
            message = receiver.recv()
            if message is None or message["type"] == MSG_EDGE_END:
                break
            received += len(message["data"])
        producer.join()
        sender.close()
        receiver.close()
        if received != sum(len(frame) for frame in frames):
            raise RuntimeError("wire probe lost bytes")

    return {"cluster.wire_mb_s": megabytes / _timed(wire, repeats)}


def probe_cluster_register(repeats: int) -> Dict[str, float]:
    from repro.cluster.coordinator import ClusterCoordinator, ClusterOptions

    def register() -> None:
        coordinator = ClusterCoordinator(ClusterOptions(workers=2))
        try:
            coordinator.start()
        finally:
            coordinator.shutdown()

    return {"cluster.register_ms": _timed(register, repeats) * 1000.0}


def probe_service(repeats: int) -> Dict[str, float]:
    """Admission arithmetic, and a trivial job through an in-process daemon."""
    from repro.api import PashConfig
    from repro.service import AdmissionController, PashServiceDaemon, ServiceClient, ServiceOptions

    controller = AdmissionController(queue_limit=16, tenant_quota=4)

    def admit_release() -> None:
        for _ in range(1000):
            controller.admit("t0")
            controller.release("t0")

    metrics = {"service.admission_us": _timed(admit_release, repeats) * 1e6 / 1000.0}
    daemon = PashServiceDaemon(
        ServiceOptions(listen="127.0.0.1:0", executors=2, config=PashConfig.paper_default(2, backend="jit"))
    )
    daemon.start()
    try:
        client = ServiceClient(daemon.endpoint, timeout=30.0)
        tiny = {"tiny.txt": ["alpha", "beta", "gamma", "delta"]}
        client.submit("cat tiny.txt | grep a", files=tiny)
        metrics["service.ping_ms"] = _timed(client.ping, repeats * 5) * 1000.0
        waits, execs = [], []
        for _ in range(repeats * 5):
            started = time.perf_counter()
            job = client.submit("cat tiny.txt | grep a", files=tiny)
            latency = time.perf_counter() - started
            execs.append(job["elapsed_seconds"] * 1000.0)
            waits.append(latency * 1000.0 - execs[-1])
        metrics.update(_job_metrics(execs, waits, daemon.stats()))
    finally:
        daemon.shutdown()
    return metrics


def _job_metrics(exec_ms: List[float], wait_ms: List[float], stats: Dict[str, Any]) -> Dict[str, float]:
    """Job timings plus the daemon's own ``stats`` counters."""
    cache = stats["plan_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.exec_ms": median(exec_ms),
        "service.queue_wait_ms": median(wait_ms),
        "service.rejected": sum(value for key, value in stats["admission"].items() if key.startswith("rejected")),
        "service.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
    }


def service_metrics_from_jobs(ops, stats: Dict[str, Any]) -> Dict[str, float]:
    """On ``service_closed`` the service numbers come from the workload's own jobs."""
    done = [op for op in ops if op.report]
    execs = [op.report["exec_seconds"] * 1000.0 for op in done]
    waits = [op.seconds * 1000.0 - exec_ms for op, exec_ms in zip(done, execs)]
    return _job_metrics(execs, waits, stats)


def probe_hooks() -> Dict[str, float]:
    """What the disabled tracing and fault hooks cost per call site."""
    from repro.obs.tracer import NULL_TRACER
    from repro.resilience import fault

    calls = 20000

    def null_span() -> None:
        for _ in range(calls):
            with NULL_TRACER.span("probe", "probe"):
                pass

    def null_fault() -> None:
        for _ in range(calls):
            fault.fire("spill:write", 0)

    def empty() -> None:
        for _ in range(calls):
            pass

    floor = _timed(empty, 5)
    return {
        "obs.null_hook_ns": (_timed(null_span, 5) - floor) / calls * 1e9,
        "resilience.null_hook_ns": (_timed(null_fault, 5) - floor) / calls * 1e9,
    }


def probe_cli_cold(launches: int, files: Dict[str, List[str]]) -> Dict[str, float]:
    """Cold ``python -m repro.cli SCRIPT --width 2 --execute jit`` launches
    (``PYTHONPATH`` already points at the program in a benchmark child)."""
    os.makedirs("cli", exist_ok=True)
    inputs.write_lines("cli", files)
    with open(os.path.join("cli", "job.sh"), "w") as handle:
        handle.write(corpus.CLI_SCRIPT + "\n")
    samples = []
    for _ in range(launches):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "job.sh", "--width", "2", "--execute", "jit"],
            cwd="cli", stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        samples.append((time.perf_counter() - started) * 1000.0)
        if completed.returncode != 0:
            raise RuntimeError("cold CLI launch failed: %s" % completed.stderr.decode("utf-8", "replace")[:200])
    return {"cli.cold_ms": median(samples)}


def op_latency_metrics(seconds: List[float]) -> Dict[str, float]:
    latencies = [value * 1000.0 for value in seconds]
    return {
        "op.p50_ms": median(latencies),
        "op.p95_ms": percentile(latencies, 0.95),
        "op.samples": float(len(latencies)),
    }
