"""The four workloads.  ``README.md`` says why each exists.

Every workload offers the same surface to ``run.py``:

* ``setup()`` — generate inputs from the seed, compute references with the
  host's tools, start whatever tier it needs, and run every arm once untimed;
* ``run(tracing=False)`` / ``seq()`` — one unit of work on the PaSh tier and on
  the sequential interpreter, returning the :class:`Op` rows to verify;
* ``cluster()`` / ``jit_unit()`` — the cluster tier and the plan-cache
  miss/hit passes the traced run adds;
* ``failed(ops)`` — how many of those rows raised or differ from the reference;
* ``close()`` — stop every process the workload started.

Only the program's front door is used here (``repro.api``, the ``pash-serve``
command line, ``ServiceClient``), so a refactor below it leaves the benchmark
running.
"""

import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import corpus
import inputs
from harness import Spans

from repro import api
from repro.api import Pash, PashConfig
from repro.jit.cache import PlanCache
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.service import ServiceClient

WIDTH = 2


class Op(NamedTuple):
    """One operation of a unit of work, as handed to verification."""

    key: str  #: which reference it must equal
    seconds: float  #: its own latency (unit-level timing is the caller's)
    output: Any  #: a list of lines, or None when the op raised or was refused
    report: Optional[Dict[str, Any]] = None  #: engine/jit counters the program returned


class Sizes(NamedTuple):
    sort_bytes: int
    grep_bytes: int
    lines_per_file: int
    jobs_per_round: int
    scripts: int  #: how many corpus scripts take part


FULL = Sizes(
    sort_bytes=10 << 20,  # the merged output must exceed the 8 MiB spill threshold
    grep_bytes=4 << 20,
    lines_per_file=500,
    jobs_per_round=2 * len(corpus.SCRIPTS),
    scripts=len(corpus.SCRIPTS),
)
SMOKE = Sizes(sort_bytes=256 << 10, grep_bytes=256 << 10, lines_per_file=60, jobs_per_round=8, scripts=8)

_NO_SPANS = Spans(enabled=False)


def _report_of(result) -> Dict[str, Any]:
    """The counters of one engine result, in the dict shape a service job reports."""
    jit = getattr(result, "jit", None)
    return {
        "metrics": result.metrics.to_dict(),
        "jit": jit.to_dict() if jit is not None else None,
        "span_records": [span.to_dict() for span in result.spans],
    }


class _Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        #: The traced run installs its recorder here; traced ops open one
        #: span each around the public call they make.
        self.spans = _NO_SPANS
        self.references: Dict[str, str] = {}
        self.input_bytes = 0
        self.host_seconds = 0.0
        #: Seconds of the two passes of the latest :meth:`jit_unit`.
        self.miss_seconds = self.hit_seconds = 0.0
        self._sessions: Dict[bool, Pash] = {}

    # -- what a concrete workload supplies -----------------------------------

    def jobs(self) -> List[Tuple[str, str]]:
        """``(reference key, script)`` of one pass through a jit session."""
        raise NotImplementedError

    def environment_for(self, script: str) -> ExecutionEnvironment:
        raise NotImplementedError

    def scripts(self) -> List[str]:
        return [script for _, script in self.jobs()]

    # -- shared behaviour ----------------------------------------------------

    def _check_warm_up(self, ops: List[Op]) -> None:
        if self.failed(ops):
            raise RuntimeError("%s: warm-up output differs from the host reference" % self.name)

    def failed(self, ops: List[Op]) -> int:
        bad = 0
        for op in ops:
            if op.output is None or inputs.digest(inputs.lines_to_bytes(op.output)) != self.references[op.key]:
                bad += 1
        return bad

    def _session(self, tracing: bool) -> Pash:
        """One ``with Pash(jit)`` session per tracing mode, opened on first use.

        Each session owns its worker pool, so the first unit through it pays
        the spawn; callers run one untimed unit before timing.
        """
        if tracing not in self._sessions:
            session = Pash(PashConfig.paper_default(WIDTH, backend="jit", tracing=tracing))
            session.__enter__()
            self._sessions[tracing] = session
        return self._sessions[tracing]

    def _jit_pass(self, session: Pash, cache: PlanCache, tracing: bool) -> List[Op]:
        spans = self.spans if tracing else _NO_SPANS
        ops = []
        for key, script in self.jobs():
            environment = self.environment_for(script)
            started = time.perf_counter()
            try:
                with spans.span("Pash.run", "api", op="%s:%s" % (self.name, key)):
                    result = session.run(script, environment=environment, cache=cache)
                output = list(result.stdout) + result.output_of("out.txt")
                report = _report_of(result) if tracing else None
            except Exception:  # noqa: BLE001 - any failure of the program is a failed op
                output, report = None, None
            ops.append(Op(key, time.perf_counter() - started, output, report))
        return ops

    def jit_unit(self, tracing: bool = False) -> List[Op]:
        """Two passes through one jit session: the first starts from an empty
        plan cache (every region compiles), the second keeps it (every region
        hits).  The worker pool stays warm throughout."""
        session = self._session(tracing)
        cache = PlanCache()
        started = time.perf_counter()
        miss = self._jit_pass(session, cache, tracing)
        self.miss_seconds = time.perf_counter() - started
        hit = self._jit_pass(session, cache, tracing)
        self.hit_seconds = time.perf_counter() - started - self.miss_seconds
        return miss + hit

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()


# ---------------------------------------------------------------------------
# Data workloads: one big pipeline over on-disk files
# ---------------------------------------------------------------------------


class _DataWorkload(_Workload):
    """A single pipeline over generated files in the current directory."""

    files: List[str] = []
    script = ""
    size_field = ""  #: which :class:`Sizes` field holds the total input bytes

    def _python_reference(self) -> bytes:
        raise NotImplementedError

    def jobs(self) -> List[Tuple[str, str]]:
        return [(self.name, self.script)]

    def environment_for(self, script: str) -> ExecutionEnvironment:
        return ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))

    def setup(self) -> None:
        share = getattr(self.sizes, self.size_field) // len(self.files)
        for index, name in enumerate(self.files):
            self.input_bytes += inputs.write_big_text(name, share, self.seed * 8 + index)
        if inputs.host_shell_available():
            payload, self.host_seconds = inputs.host_reference(self.script, os.getcwd())
        else:
            payload = self._python_reference()
        self.references[self.name] = inputs.digest(payload)
        self._check_warm_up(self.run() + self.seq())

    def _execute(self, config, backend, with_report=False) -> List[Op]:
        spans = self.spans if with_report else _NO_SPANS
        started = time.perf_counter()
        try:
            with spans.span("execute", "engine", op="%s:%s" % (self.name, backend)):
                result = api.run(
                    self.script, config=config, backend=backend, environment=self.environment_for(self.script)
                )
        except Exception:  # noqa: BLE001 - any failure of the program is a failed op
            return [Op(self.name, time.perf_counter() - started, None)]
        report = _report_of(result) if with_report else None
        return [Op(self.name, time.perf_counter() - started, result.output_of("out.txt"), report)]

    def run(self, tracing: bool = False) -> List[Op]:
        config = PashConfig.paper_default(WIDTH, backend="parallel", tracing=tracing)
        return self._execute(config, "parallel", with_report=tracing)

    def seq(self) -> List[Op]:
        """``config=None`` on the interpreter: the paper's sequential baseline."""
        return self._execute(None, "interpreter")

    def cluster(self) -> List[Op]:
        """The same script with its edges on ``cluster.protocol`` sockets."""
        return self._execute(PashConfig.paper_default(WIDTH, backend="cluster"), "cluster", with_report=True)

    def close(self) -> None:
        from repro.engine.pool import shutdown_shared_pools

        super().close()
        shutdown_shared_pools()


class SortCpu(_DataWorkload):
    name = "sort_cpu"
    files = ["F0.txt", "F1.txt"]
    script = "cat F0.txt F1.txt | tr A-Z a-z | sort > out.txt"
    size_field = "sort_bytes"

    def _python_reference(self) -> bytes:
        return inputs.python_reference_sort(self.files)


class GrepStream(_DataWorkload):
    name = "grep_stream"
    files = ["F.txt"]
    script = "cat F.txt | tr A-Z a-z | grep -v %s | cut -d ' ' -f 1-4 > out.txt" % inputs.MARKER
    size_field = "grep_bytes"

    def _python_reference(self) -> bytes:
        return inputs.python_reference_grep(self.files)


# ---------------------------------------------------------------------------
# Script workloads: many small scripts over in-memory files
# ---------------------------------------------------------------------------


class _ScriptWorkload(_Workload):
    """Shared set-up of the corpus-driven workloads."""

    def _prepare_corpus(self) -> None:
        if not inputs.host_shell_available():
            raise RuntimeError("%s needs the host's sh and coreutils for its references" % self.name)
        self.files = inputs.small_files(self.seed, self.sizes.lines_per_file)
        self.input_bytes = sum(len(line) + 1 for lines in self.files.values() for line in lines)
        chosen = list(corpus.SCRIPTS)
        random.Random(self.seed).shuffle(chosen)
        self.order = chosen[: self.sizes.scripts]
        os.makedirs("host", exist_ok=True)
        inputs.write_lines("host", self.files)
        for key, script in self.order:
            payload, seconds = inputs.host_reference(script, "host")
            self.references[key] = inputs.digest(payload)
            self.host_seconds += seconds
        payload, _ = inputs.host_reference(corpus.CLI_SCRIPT, "host")
        self.references["grep-light"] = inputs.digest(payload)

    def jobs(self) -> List[Tuple[str, str]]:
        return self.order

    def environment_for(self, script: str) -> ExecutionEnvironment:
        return ExecutionEnvironment(filesystem=VirtualFileSystem(self._files_for(script)))

    def _files_for(self, script: str) -> Dict[str, List[str]]:
        return {name: self.files[name] for name in corpus.input_names(script)}

    def cluster(self) -> List[Op]:
        """Table-2 ``grep-light`` over the small files on the cluster tier."""
        script = corpus.CLI_SCRIPT
        started = time.perf_counter()
        try:
            with self.spans.span("execute", "engine", op="%s:cluster" % self.name):
                result = api.run(
                    script, config=PashConfig.paper_default(WIDTH, backend="cluster"),
                    backend="cluster", environment=self.environment_for(script),
                )
        except Exception:  # noqa: BLE001 - any failure of the program is a failed op
            return [Op("grep-light", time.perf_counter() - started, None)]
        return [Op("grep-light", time.perf_counter() - started, result.output_of("out.txt"), _report_of(result))]

    def _sequential(self, jobs) -> List[Op]:
        """The jobs on the sequential shell interpreter, one after another."""
        ops = []
        for key, script in jobs:
            started = time.perf_counter()
            filesystem = VirtualFileSystem(self._files_for(script))
            try:
                output = list(ShellInterpreter(filesystem=filesystem).run_script(script))
                if filesystem.exists("out.txt"):
                    output += filesystem.read("out.txt")
            except Exception:  # noqa: BLE001 - any failure of the program is a failed op
                output = None
            ops.append(Op(key, time.perf_counter() - started, output))
        return ops


class ScriptMix(_ScriptWorkload):
    """Every corpus script through one warm ``Pash`` jit session; a unit is
    one :meth:`jit_unit` (a compiling pass, then a cache-hitting pass)."""

    name = "script_mix"

    def setup(self) -> None:
        self._prepare_corpus()
        self._check_warm_up(self.run() + self.seq())

    def run(self, tracing: bool = False) -> List[Op]:
        return self.jit_unit(tracing)

    def seq(self) -> List[Op]:
        return self._sequential(self.order)


class ServiceClosed(_ScriptWorkload):
    """A ``pash-serve`` child and two closed-loop clients.

    Callers are scripts blocking on ``pash-client submit``, so each client
    sends its next job only when the previous one has answered.  A unit is one
    barriered round: the same seeded draw of jobs, half per client, tenants
    ``t0``/``t1``, inputs uploaded with every job.
    """

    name = "service_closed"
    CLIENTS = 2

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self._daemons: List[subprocess.Popen] = []
        self._endpoints: Dict[bool, str] = {}

    def setup(self) -> None:
        self._prepare_corpus()
        # Every script equally often, so a round's work does not depend on the
        # seed's luck; the seed only orders the jobs (and generates the data).
        copies = max(1, self.sizes.jobs_per_round // len(self.order))
        self.round = self.order * copies
        random.Random(self.seed + 1).shuffle(self.round)
        self._endpoints[False] = self._start_daemon("daemon.log")
        self._check_warm_up(self.run() + self.seq())

    def _start_daemon(self, log_name: str, trace: Optional[str] = None) -> str:
        command = [
            sys.executable, "-m", "repro.service.daemon",
            "--listen", "127.0.0.1:0", "--executors", "2",
            "--width", str(WIDTH), "--execute", "jit",
        ]
        if trace:
            command += ["--trace", trace]
        with open(log_name, "w") as log:
            process = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        self._daemons.append(process)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and process.poll() is None:
            with open(log_name) as log:
                for line in log:
                    if "listening on " in line:
                        return line.split("listening on ", 1)[1].split()[0]
            time.sleep(0.02)
        raise RuntimeError("pash-serve did not start; see %s" % log_name)

    def _client_loop(self, endpoint, tenant, jobs, barrier, out, spans) -> None:
        client = ServiceClient(endpoint, timeout=60.0)
        barrier.wait()
        for index, (key, script) in enumerate(jobs):
            started = time.perf_counter()
            try:
                with spans.span("ServiceClient.submit", "service", op="%s:%d:%s" % (tenant, index, key)):
                    job = client.submit(script, tenant=tenant, files=self._files_for(script))
                if job.get("state") != "done":
                    raise RuntimeError(job.get("error"))
                output = list(job.get("stdout") or []) + list((job.get("files") or {}).get("out.txt", []))
                report = dict(job.get("report") or {}, exec_seconds=job.get("elapsed_seconds", 0.0))
            except Exception:  # noqa: BLE001 - refused, failed or unreachable: a failed op
                output, report = None, None
            out.append(Op(key, time.perf_counter() - started, output, report))

    def run(self, tracing: bool = False) -> List[Op]:
        if tracing not in self._endpoints:
            # A second daemon with the program's tracing on; rounds alternate
            # between the two, which is what prices the tracing.
            self._endpoints[True] = self._start_daemon("daemon-traced.log", trace="daemon-trace.json")
        barrier = threading.Barrier(self.CLIENTS)
        results: List[List[Op]] = [[] for _ in range(self.CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(self._endpoints[tracing], "t%d" % index, self.round[index :: self.CLIENTS], barrier,
                      results[index], self.spans if tracing else _NO_SPANS),
            )
            for index in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [op for ops in results for op in ops]

    def seq(self) -> List[Op]:
        return self._sequential(self.round)

    def stats(self, tracing: bool = False) -> Dict[str, Any]:
        return ServiceClient(self._endpoints[tracing], timeout=30.0).stats()

    def close(self) -> None:
        super().close()
        for endpoint in self._endpoints.values():
            try:
                ServiceClient(endpoint, timeout=10.0).shutdown()
            except Exception:  # noqa: BLE001 - the kill below is the backstop
                pass
        for process in self._daemons:
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


WORKLOADS = {cls.name: cls for cls in (SortCpu, GrepStream, ScriptMix, ServiceClosed)}
