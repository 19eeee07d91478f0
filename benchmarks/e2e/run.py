#!/usr/bin/env python3
"""pash-bench: the repository's end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload sort_cpu --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py                      # all workloads, untraced
    python3 benchmarks/e2e/run.py --traced             # all workloads, per-layer run
    python3 benchmarks/e2e/run.py --smoke              # tiny inputs, both kinds of run, ~10 s
    python3 benchmarks/e2e/run.py --aa 2               # same code twice, compared with the bounds

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when any
operation failed.  Metric names, units and bounds live in ``BENCHMARK.json``
at the repository root, which this runner reads so the two cannot disagree.

Each workload runs in fresh child processes (``child.py``): two that only set
up (their time feeds the ``setup_s`` median) and one that sets up and measures.
Children work inside ``.bench_work/`` at the repository root, which is also
their ``TMPDIR``, so the program's spill files stay inside the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".bench_work")
WORKLOAD_NAMES = ["sort_cpu", "grep_stream", "script_mix", "service_closed"]
DEFAULT_SEED = 1
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
#: How long :func:`wake_cores` keeps the cores busy before a run.
WAKE_SECONDS = 1.5
#: Counts that must repeat exactly for one seed (checked by ``--aa``).
#: ``backend.emit_bytes`` is not one: the emitted script names its FIFOs after
#: the compiling process's pid and spells out the checkout's path.
EXACT_COUNTS = [
    "shell.scripts_parsed", "dfg.nodes_built", "dfg.regions_found", "dfg.regions_rejected",
    "transform.nodes_after", "transform.commands_parallelized",
    "engine.bytes_moved", "engine.edges_direct", "engine.edges_buffered", "engine.relays_elided",
    "engine.stages_fused", "jit.regions_seen", "jit.regions_compiled", "jit.cache_hits", "jit.fallbacks",
    "resilience.runs_retried", "resilience.degraded_runs",
]


def _reap_group(process) -> None:
    """Kill whatever the child left in its process group and wait for it to go."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def spawn_child(workload, seed, seconds, trace, phase, smoke):
    """Run one child to completion; returns its result dict."""
    directory = tempfile.mkdtemp(prefix="%s-" % workload, dir=WORK)
    result_path = os.path.join(directory, "result.json")
    log_path = os.path.join(directory, "child.log")
    command = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--phase", phase, "--result", result_path,
        "--trace-file", os.path.join(WORK, "trace-%s.json" % workload),
    ]
    if smoke:
        command.append("--smoke")
    environment = dict(os.environ, TMPDIR=directory, PYTHONPATH=SOURCE)
    environment.pop("PASH_FAULTS", None)  # a fault plan left in the shell must not reach the workers
    try:
        # The child's own output is its log: the runner prints the results.
        with open(log_path, "w") as log:
            process = subprocess.Popen(
                command + ["--spawned-at", repr(time.perf_counter())],
                cwd=directory, env=environment, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _reap_group(process)
                process.wait()
        if code != 0 or not os.path.exists(result_path):
            with open(log_path) as log:
                tail = log.read()[-2000:]
            outcome = "timed out" if code is None else "exited %s" % code
            raise RuntimeError("%s child (%s) %s\n%s" % (workload, phase, outcome, tail))
        with open(result_path) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def wake_cores() -> None:
    """Keep every usable core busy for a moment before anything is timed.

    After a minute or two of idleness this box runs a pipeline's processes on
    one core only for the next ~50 s (the guest shows exactly one core busy):
    the PaSh arm of ``sort_cpu`` then reads 0.85 s instead of 0.64 s, while the
    single-process arm, the calibration kernel and ``cpu_s`` do not move.
    Busy-looping on all cores at once for a moment ends that state (4 cold
    starts of 4 were slow without it, 0 of 6 with it).
    """
    spin = "import time\nend = time.perf_counter() + %r\nwhile time.perf_counter() < end: pass" % WAKE_SECONDS
    spinners = [
        subprocess.Popen([sys.executable, "-c", spin], stdin=subprocess.DEVNULL)
        for _ in os.sched_getaffinity(0)
    ]
    for spinner in spinners:
        spinner.wait()


def run_workload(workload, seed, seconds, trace, smoke):
    """One benchmark run of one workload, as the driver asks for it."""
    if not smoke:
        wake_cores()
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_child(workload, seed, seconds, trace, "setup", smoke)["metrics"]["setup_s"])
    result = spawn_child(workload, seed, seconds, trace, "measure", smoke)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["setup.samples"] = float(len(setups))
    return result


def report(workload, result, contract, trace):
    """Print every metric by name with its unit; returns the contract's JSON object."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in contract["end_to_end"] + contract["per_layer"]}
    measured = result["metrics"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in measured]
    if missing:
        raise RuntimeError("%s: metrics not produced: %s" % (workload, ", ".join(missing)))
    print(
        "# %s %s run: %d ops attempted, %d failed; input %d bytes; %d usable cores; python %s"
        % (workload, "traced" if trace else "untraced", result["attempted"], result["failed"],
           result["input_bytes"], len(os.sched_getaffinity(0)), platform.python_version())
    )
    for entry in wanted:
        print("METRIC %s %s %.6g %s" % (workload, entry["name"], measured[entry["name"]], entry["unit"]))
    for name in sorted(set(measured) - {entry["name"] for entry in wanted}):
        print("INFO %s %s %.6g %s" % (workload, name, measured[name], units.get(name, "-")))
    for note in result["notes"]:
        print("# %s: %s" % (workload, note))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]} for entry in wanted
        },
    }


def run_aa(sets, names, seed, seconds, contract) -> int:
    """Same code, ``sets`` times: do the runs agree within the bounds?"""
    verdict = 0
    for workload in names:
        runs = [run_workload(workload, seed, seconds, False, False) for _ in range(sets)]
        traced = [run_workload(workload, seed, seconds, True, False) for _ in range(sets)]
        for entry in contract["end_to_end"]:
            values = [run["metrics"][entry["name"]] for run in runs]
            worse = max(values) / min(values) - 1.0
            ok = worse <= entry["bound"]
            verdict |= not ok
            print(
                "AA %s %s %s rel=%.3f bound=%.2f %s"
                % (workload, entry["name"], " ".join("%.5g" % value for value in values), worse,
                   entry["bound"], "PASS" if ok else "FAIL"),
                flush=True,
            )
        for name in EXACT_COUNTS:
            values = [run["metrics"][name] for run in traced]
            ok = len(set(values)) == 1
            verdict |= not ok
            print("AA %s %s %s %s" % (workload, name, " ".join("%g" % value for value in values),
                                      "EXACT" if ok else "DIFFERS"))
        failed = sum(run["failed"] for run in runs + traced)
        attempted = sum(run["attempted"] for run in runs + traced)
        verdict |= failed != 0
        print("AA %s failed_ops %d of %d %s" % (workload, failed, attempted, "PASS" if failed == 0 else "FAIL"),
              flush=True)
    return int(verdict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of the measuring phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = the per-layer run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; each workload does an untraced and a traced run")
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0, metavar="N",
                        help="run everything N times (default 2) and compare with the bounds")
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("pash-bench: no program to measure: %s is missing" % os.path.join(SOURCE, "repro"), file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    seconds = arguments.seconds
    if seconds is None:
        seconds = 0.2 if arguments.smoke else float(contract["run_seconds"])
    os.makedirs(WORK, exist_ok=True)
    names = [arguments.workload] if arguments.workload else WORKLOAD_NAMES
    if arguments.aa:
        return run_aa(arguments.aa, names, arguments.seed, seconds, contract)
    trace = bool(arguments.trace or arguments.traced)

    def run_one(workload):
        return run_workload(workload, arguments.seed, seconds, trace, arguments.smoke)

    if arguments.smoke:
        # Nothing is being measured, so two workloads may share the two cores.
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(run_one, names))
    else:
        results = map(run_one, names)
    summary = None
    failed = 0
    for workload, result in zip(names, results):
        # The one child of a smoke run has produced both kinds of metric.
        for mode in [False, True] if arguments.smoke else [trace]:
            summary = report(workload, result, contract, mode)
        failed += result["failed"]
    # The driver reads the last line; with several workloads it is the last one's.
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
