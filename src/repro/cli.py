"""``pash-compile`` / ``pash-repro`` — the command-line front door.

Usage examples::

    pash-compile --width 16 script.sh            # print the parallel script
    pash-compile --width 8 --report script.sh    # also print what was done
    pash-compile --width 4 --no-eager script.sh  # ablate the eager relays
    pash-compile --width 4 --disable-pass eager-relays script.sh  # same, by name
    echo 'cat a b | grep x | sort' | pash-compile --width 4 -
    pash-compile --width 4 --execute parallel script.sh   # run it, too
    pash-compile --list-backends                 # registered engine backends
    pash-compile --version

The CLI is a thin veneer over the library API: the flags assemble one
:class:`repro.api.PashConfig` (via :meth:`PashConfig.from_cli_args`) and the
work happens in :meth:`repro.api.Pash.compile` /
:meth:`repro.api.CompiledScript.execute`.  By default the tool never executes
anything; like the paper's system it emits a new shell script that the user's
own shell runs.  With ``--execute`` it instead runs the script — control
flow and all — with its regions on one of the engine backends: input files
are read from the real filesystem, output files are written back to it, and
our stdout carries the script's output (the compiled script itself is still
available through ``--output``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro
from repro import engine
from repro.api import CompiledScript, Pash, PashConfig
from repro.api.artifact import SCRIPT_LEVEL_BACKENDS
from repro.commands.base import CommandError
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.interpreter import InterpreterError
from repro.runtime.streams import VirtualFileSystem, read_lines, write_lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pash-compile",
        description="Compile a POSIX shell script into its data-parallel equivalent.",
    )
    parser.add_argument(
        "script", nargs="?", default=None, help="path to the script, or '-' for stdin"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    parser.add_argument("--width", type=int, default=2, help="parallelism width (default 2)")
    parser.add_argument(
        "--no-eager", action="store_true", help="disable eager relay insertion"
    )
    parser.add_argument(
        "--blocking-eager", action="store_true", help="use blocking relays instead of eager ones"
    )
    parser.add_argument(
        "--split",
        choices=("general", "input-aware", "none"),
        default="general",
        help="split strategy for single-input parallelizable commands",
    )
    parser.add_argument(
        "--fan-in", type=int, default=2, help="aggregation tree fan-in (default 2)"
    )
    parser.add_argument(
        "--disable-pass",
        action="append",
        default=None,
        metavar="NAME",
        help="remove an optimization pass by name (repeatable; e.g. "
        "'eager-relays', 'split-insertion')",
    )
    parser.add_argument(
        "--report", action="store_true", help="print a compilation report to stderr"
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write the parallel script to this file"
    )
    parser.add_argument(
        "--execute",
        default=None,
        metavar="BACKEND",
        help="run the script with its regions on the given engine backend "
        "instead of printing the compiled script (see --list-backends; "
        "combine with --output to keep the script too)",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the registered engine backends and exit",
    )
    parser.add_argument(
        "--submit",
        default=None,
        metavar="HOST:PORT",
        help="submit the script to a running pash-serve daemon instead of "
        "compiling locally; the script's file inputs are uploaded into the "
        "job's virtual filesystem (see also pash-client for the full "
        "status/cancel/stats surface)",
    )
    parser.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="tenant name for --submit (admission quotas are per tenant)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="persistent worker-pool size for '--execute parallel' (the pool "
        "is pre-warmed to N processes and grows on demand; 0 disables the "
        "pool and forks one fresh process per node)",
    )
    parser.add_argument(
        "--jit-backend",
        default=None,
        metavar="BACKEND",
        help="what the JIT driver executes compiled regions on when "
        "'--execute jit' is used: 'auto' (default) sizes every region from "
        "its live input and keeps small ones in-process, 'parallel' runs "
        "exactly --width on the pool, or any engine backend name",
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for '--execute cluster': localhost pash-worker "
        "processes to spawn, or registrations to wait for with "
        "--cluster-connect (default 2)",
    )
    parser.add_argument(
        "--cluster-connect",
        default=None,
        metavar="HOST:PORT",
        help="with '--execute cluster', listen on this address and wait for "
        "externally-started 'pash-worker --connect HOST:PORT' processes "
        "instead of spawning localhost workers",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE.json",
        help="record spans for the whole compile-and-run pipeline (parse, "
        "passes, jit decisions, scheduler, workers) and write a Chrome "
        "trace_event JSON — open it in Perfetto or chrome://tracing",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="FILE",
        help="write the machine-readable run report (engine metrics + jit "
        "report + per-pass timings + span summary) as one JSON document",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed parallel run up to N times with exponential "
        "backoff before degrading to the sequential interpreter (arms the "
        "resilience ladder; see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="with --max-retries/--fault-plan: fail with a typed error after "
        "retries instead of degrading to the interpreter",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE.json",
        help="inject a deterministic fault plan ({\"seed\": N, \"faults\": "
        "[...]}) for chaos testing — see docs/RESILIENCE.md for the format",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)

    backends = sorted({*engine.available_backends(), *SCRIPT_LEVEL_BACKENDS})
    if arguments.list_backends:
        for name in backends:
            print(name)
        return 0
    if arguments.script is None:
        parser.error("the script argument is required (or '-' for stdin)")
    if arguments.execute and arguments.execute not in backends:
        print(
            f"pash-compile: unknown backend {arguments.execute!r}; "
            f"available: {', '.join(backends)}",
            file=sys.stderr,
        )
        return 2

    if arguments.script == "-":
        source = sys.stdin.read()
    else:
        with open(arguments.script) as handle:
            source = handle.read()

    if arguments.submit:
        return _submit(source, arguments)

    try:
        config = PashConfig.from_cli_args(arguments)
        compiled = Pash(config).compile(source)
    except ValueError as exc:  # e.g. an unknown --disable-pass name
        print(f"pash-compile: {exc}", file=sys.stderr)
        return 2

    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(compiled.text + "\n")
    elif not arguments.execute:
        print(compiled.text)

    exit_code = 0
    result = None
    if arguments.execute:
        try:
            result = _execute(compiled, arguments)
        except (ExecutionError, InterpreterError, CommandError) as exc:
            # The last two come from the driver's interpreter path, which
            # runs every region the compiler left alone.
            print(f"pash-compile: execution failed: {exc}", file=sys.stderr)
            exit_code = 1

    # The report (compilation + execution) and the observability artifacts
    # are emitted even when execution failed — a failing run is exactly the
    # one whose report and trace are wanted — and the exit code still says 1.
    if arguments.report:
        _emit_report(compiled, result)
    _export_artifacts(compiled, result, arguments)
    return exit_code


def _report_line(text: str) -> None:
    """The single formatting path for every ``--report`` stderr line."""
    print(f"# {text}", file=sys.stderr)


def _emit_report(compiled: CompiledScript, result: Optional[object]) -> None:
    """Print the full ``--report``: compilation first, then execution (if any).

    Every line — compilation stats, engine metrics, the JIT report — flows
    through :func:`_report_line`, and the function is called exactly once per
    invocation, so ``--report --execute jit --trace`` composes without
    duplicate stderr lines.
    """
    stats = compiled.stats
    _report_line(
        f"regions: {stats.regions_found} found, "
        f"{stats.regions_parallelized} parallelized, "
        f"{stats.regions_rejected} left sequential"
    )
    _report_line(f"runtime processes: {compiled.node_count}")
    _report_line(f"compile time: {stats.compile_time_seconds * 1000:.1f} ms")
    for command in stats.parallelized_commands:
        _report_line(f"  parallelized: {command}")
    if result is None:
        return
    _report_line(f"backend: {result.backend}")
    _report_line(result.metrics.summary())
    _report_line(result.jit.summary())
    for line in result.jit.decisions():
        _report_line(f"  {line}")


def _export_artifacts(
    compiled: CompiledScript, result: Optional[object], arguments: argparse.Namespace
) -> None:
    """Write the ``--trace`` Chrome trace and the ``--metrics-json`` report."""
    if arguments.trace:
        from repro.obs import export_chrome_trace

        export_chrome_trace(compiled.tracer.spans, arguments.trace)
    if arguments.metrics_json:
        import json

        from repro.obs import RunReport

        report = RunReport.from_run(
            result, compiled=compiled, spans=compiled.tracer.spans
        )
        with open(arguments.metrics_json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _submit(source: str, arguments: argparse.Namespace) -> int:
    """Route the script to a running ``pash-serve`` daemon (``--submit``).

    The daemon never reads the submitter's filesystem (tenant isolation), so
    the script's file inputs must travel with the request: a best-effort
    local compile discovers the FILE input edges and every named input that
    exists on disk is uploaded into the job's virtual filesystem.  Scripts
    whose input names are computed at runtime should be submitted through
    ``pash-client submit --input`` with the uploads named explicitly.
    """
    from repro.dfg.edges import EdgeKind
    from repro.service.client import ServiceClient
    from repro.service.admission import ServiceBusy, ServiceError

    files = {}
    try:
        compiled = Pash(PashConfig.from_cli_args(arguments)).compile(source)
    except Exception:
        compiled = None  # dynamic scripts still submit; uploads are best-effort
    if compiled is not None:
        import os

        for region in compiled.translation.regions:
            for edge in region.dfg.input_edges():
                if edge.kind is EdgeKind.FILE and edge.name and os.path.isfile(edge.name):
                    files[edge.name] = read_lines(edge.name)
    client = ServiceClient(arguments.submit)
    try:
        job = client.submit(
            source,
            tenant=arguments.tenant,
            files=files or None,
            backend=arguments.execute,
        )
    except ServiceBusy as busy:
        print(f"pash-compile: submission rejected ({busy.code}): {busy}", file=sys.stderr)
        return 3
    except ServiceError as error:
        print(f"pash-compile: {error}", file=sys.stderr)
        return 2
    if job.get("state") != "done":
        print(
            f"pash-compile: job {job.get('job_id')} {job.get('state')}: "
            f"{job.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    write_lines(sys.stdout.buffer, job.get("stdout", []))
    for name, lines in (job.get("files") or {}).items():
        write_lines(name, lines)
    if arguments.report:
        jit = (job.get("report") or {}).get("jit") or {}
        if jit:
            _report_line(
                f"jit: {jit.get('regions_seen', 0)} regions seen, "
                f"{jit.get('regions_compiled', 0)} compiled, "
                f"{jit.get('cache_hits', 0)} cache hits, "
                f"{jit.get('fallbacks', 0)} fell back"
            )
    return 0


def _execute(compiled: CompiledScript, arguments: argparse.Namespace):
    """Run the compiled script on the selected engine backend.

    Input files are read from the real filesystem (via the VFS fallback);
    output files the script writes are persisted back to disk, and stdout
    goes to our stdout — the observable behaviour of running the script.
    Process stdin feeds the graphs' STDIN edges, except when the script
    itself was read from stdin (``-``), which already consumed it.
    Returns the :class:`~repro.jit.driver.JitResult` for reporting.
    """
    from repro.dfg.edges import EdgeKind

    needs_stdin = any(
        edge.kind is EdgeKind.STDIN
        for graph in compiled.optimized_graphs
        for edge in graph.input_edges()
    )
    stdin_lines: List[str] = []
    if needs_stdin and arguments.script != "-":
        stdin_lines = read_lines(sys.stdin.buffer)
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem(allow_real_files=True),
        stdin=stdin_lines,
    )
    result = compiled.execute(backend=arguments.execute, environment=environment)
    write_lines(sys.stdout.buffer, result.stdout)
    for name, lines in result.files.items():
        write_lines(name, lines)
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
