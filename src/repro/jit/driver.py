"""``JitDriver`` — the stateful script driver that compiles regions at runtime.

PaSh's AOT compiler (§5.1) refuses any region whose words it cannot resolve
statically: an unknown ``$VAR``, a command substitution, a loop-carried
binding.  The JIT driver removes the "statically": it *is* the shell for the
control-flow skeleton — it walks the AST node by node, maintaining concrete
shell state (variable bindings, ``$?``, positional parameters, the virtual
filesystem) by inheriting the sequential interpreter's semantics wholesale —
and at each region candidate (a pipeline or simple command) it invokes the
compiler **with the current bindings**.  A region that compiles executes on
an engine backend (the multiprocess parallel scheduler by default, reusing
the persistent worker pool across regions); a region that still refuses
falls back to the inherited interpreter path, per region, never for the
whole script.

Compiled plans land in a :class:`~repro.jit.cache.PlanCache` keyed on
(region fingerprint, referenced-binding values, config digest), so a loop
body whose referenced bindings do not change compiles once and re-executes
from the cache on every later iteration.  Every decision is recorded in a
:class:`~repro.jit.report.JitReport`.

Semantics notes (beyond the interpreter's, which the driver inherits):

* Compiled regions with a bare-stdin input read the execution environment's
  stdin (engine semantics); fallback regions read empty stdin (interpreter
  semantics).  Scripts mixing bare-stdin regions with dynamic state should
  name their inputs.
* Command substitutions are evaluated by the sequential interpreter (never
  JIT'd), and their results are memoized for the duration of one region
  occurrence so a region that expands ``$(...)`` during compilation and then
  falls back does not run the substitution twice.
* Regions containing command substitutions or glob patterns are compiled
  fresh on every occurrence (their expansion depends on state outside the
  cache key).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.api.config import PashConfig
from repro.dfg.builder import DFGBuilder, UntranslatableRegion
from repro.dfg.edges import EdgeKind
from repro.dfg.regions import RegionFacts
from repro.engine.api import EngineResult, ExecutionBackend, create_backend
from repro.engine.metrics import EngineMetrics
from repro.jit.cache import (
    CompiledPlan,
    FailedPlan,
    ParsedScript,
    PlanCache,
    PlanEntry,
    config_digest,
)
from repro.jit.report import JitReport, RegionOutcome
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience import fault
from repro.resilience.supervisor import supervise
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.interpreter import BUILTIN_COMMANDS, ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.shell.ast_nodes import Command, Node, Pipeline
from repro.shell.expansion import ExpansionContext, ExpansionError
from repro.transform.pipeline import OptimizationReport
from repro.transform.planner import RegionPlan, plan_region


@dataclass
class JitResult(EngineResult):
    """An :class:`~repro.engine.api.EngineResult` plus the JIT report."""

    jit: JitReport = field(default_factory=JitReport)


@dataclass
class _Occurrence:
    """One region occurrence on its way through :meth:`JitDriver._try_jit`."""

    #: The region node, its text and fingerprint, what it references.
    facts: RegionFacts
    #: The plan key minus its width: (fingerprint, bindings, config digest).
    key: Tuple[Any, ...]
    cacheable: bool
    saw_glob: bool = False
    compile_seconds: float = 0.0
    #: Wall time inside :meth:`JitDriver._decide`, compiles included.
    plan_seconds: float = 0.0
    #: The plans this occurrence looked up or compiled, by width.
    plans: Dict[int, CompiledPlan] = field(default_factory=dict)
    #: Widths compiled (not served from the cache) during this occurrence.
    fresh: Set[int] = field(default_factory=set)


class _RecordingFileSystem(VirtualFileSystem):
    """A view over an existing VFS that records which names were written.

    Shares the wrapped filesystem's storage (every layer — interpreter
    fallbacks, engine backends, shell read-back — sees one namespace) and
    collects the set of written names so the driver can report the script's
    file outputs like every other backend does.
    """

    def __init__(self, inner: VirtualFileSystem) -> None:
        self._files = inner._files  # shared storage, deliberately
        self._owned = inner._owned  # and who may append in place
        self.allow_real_files = inner.allow_real_files
        self.written: Set[str] = set()

    def write(self, name: str, lines) -> None:  # type: ignore[override]
        super().write(name, lines)
        self.written.add(name)

    def append(self, name: str, lines) -> None:  # type: ignore[override]
        super().append(name, lines)
        self.written.add(name)


class JitDriver(ShellInterpreter):
    """Runs whole scripts, JIT-compiling dataflow regions as they are reached.

    ``environment`` supplies the filesystem/stdin/registry shared by every
    region (compiled or fallback); ``inner_backend`` picks the engine that
    executes compiled plans (default: the config's ``jit_inner_backend``,
    normally ``auto``); ``pool`` pins parallel execution to a specific
    persistent :class:`~repro.engine.pool.WorkerPool` (a ``with Pash(...)``
    session passes its private pool); ``cache`` shares a
    :class:`PlanCache` across drivers.  ``config=None`` runs every region's
    graph as built — no passes, nothing to size — which is the sequential
    baseline ``repro.api.run(script)`` measures.
    """

    def __init__(
        self,
        config: Optional[Any] = None,
        environment: Optional[ExecutionEnvironment] = None,
        library: Optional[Any] = None,
        inner_backend: Optional[str] = None,
        pool: Optional[Any] = None,
        cache: Optional[PlanCache] = None,
        max_loop_iterations: int = 100_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        base = environment or ExecutionEnvironment()
        self._fs = _RecordingFileSystem(base.filesystem)
        self.environment = ExecutionEnvironment(
            filesystem=self._fs, stdin=list(base.stdin), registry=base.registry
        )
        super().__init__(
            filesystem=self._fs,
            registry=base.registry,
            library=library,
            max_loop_iterations=max_loop_iterations,
        )
        self.config = PashConfig.coerce(config)
        self._as_built = config is None
        if tracer is None:
            tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.tracer = tracer
        self.inner_backend = inner_backend or self.config.jit_inner_backend
        self.pool = pool
        self.cache = cache if cache is not None else PlanCache()
        self.report = JitReport()
        self.metrics = EngineMetrics(backend="jit")
        self._config_digest = config_digest(self.config)
        self._pipeline = self.config.pipeline()
        self._engines: Dict[str, ExecutionBackend] = {}
        if self.inner_backend != "auto":
            # An unknown engine name fails here, not at the first region a
            # script may never reach.
            self._engine_backend(self.inner_backend)
        self._in_region = False
        self._active_memo: Optional[Dict[str, str]] = None
        #: The script :meth:`run` is walking.
        self._script: Optional[ParsedScript] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, source_or_ast) -> JitResult:
        """Execute a whole script; returns stdout, files, metrics, and report.

        The driver's shell state and plan cache persist across calls, so a
        sequence of ``run`` invocations behaves like one long-lived shell
        session with a warm cache; the report and metrics are per-call.
        Source text is parsed through the cache's script memo (a plan-cache
        hit is a parse hit too); an AST is used as it is, and never written to.
        """
        self.report = JitReport()
        self.metrics = EngineMetrics(backend="jit")
        self._fs.written = set()  # files are reported per call, like the report
        mark = self.tracer.mark()
        started = time.perf_counter()
        if isinstance(source_or_ast, str):
            with self.tracer.span("parse", "parse", source_bytes=len(source_or_ast)):
                script = self.cache.script(source_or_ast)
        else:
            script = ParsedScript(source_or_ast)
        self._script = script
        # Arms the coordinator-side fault points for the run (worker-side
        # points travel inside the worker plans).
        plan = self.config.resilience.fault_plan()
        previous_plan = fault.active()
        if plan is not None:
            fault.install(plan)
        try:
            with self.tracer.span("jit:script", "jit"):
                stdout = self.run_node(script.ast)
        finally:
            if plan is not None:
                # Restore (not clear): the service daemon installs a job-level
                # plan around its whole attempt ladder, and a nested run must
                # not wipe it out.
                fault.install(previous_plan)
        elapsed = time.perf_counter() - started
        files = {
            name: self._fs.read(name)
            for name in sorted(self._fs.written)
            if self._fs.exists(name)
        }
        return JitResult(
            backend="jit",
            stdout=stdout,
            files=files,
            elapsed_seconds=elapsed,
            metrics=self.metrics,
            jit=self.report,
            spans=self.tracer.since(mark),
        )

    # ------------------------------------------------------------------
    # Region interception
    # ------------------------------------------------------------------

    def _execute(self, node: Node, stdin):
        if (
            not self._in_region
            and not stdin
            and isinstance(node, (Pipeline, Command))
            and self._is_region(node)
        ):
            previous_memo = self._active_memo
            self._active_memo = {}
            try:
                handled, output = self._try_jit(node)
                if handled:
                    return output
                self._in_region = True
                try:
                    return super()._execute(node, stdin)
                finally:
                    self._in_region = False
            finally:
                self._active_memo = previous_memo
        return super()._execute(node, stdin)

    @staticmethod
    def _is_region(node: Node) -> bool:
        """Pipelines and non-builtin, non-assignment commands are regions."""
        if isinstance(node, Pipeline):
            return True
        if node.assignments and not node.words:
            return False
        return node.name not in BUILTIN_COMMANDS

    # ------------------------------------------------------------------
    # The JIT hot path
    # ------------------------------------------------------------------

    def _try_jit(self, node: Node) -> Tuple[bool, Optional[List[str]]]:
        """Compile-or-cache the region and execute it on the inner engine.

        Returns ``(True, stdout)`` when the region ran as a dataflow graph,
        ``(False, None)`` when the caller must fall back to the interpreter.

        With ``inner_backend="auto"`` the plan a region starts from is its
        sequential graph; the region planner then sizes this *execution* from
        the live input, and the region runs either as it stands on the
        in-process executor or at the chosen width on the pool.  Any other
        inner backend compiles at exactly ``config.width`` and runs there —
        or, without a config, runs the sequential graph as built.
        """
        facts = self._script.facts(node)
        fingerprint = facts.fingerprint
        auto = self.inner_backend == "auto"
        sequential = auto or self._as_built
        occurrence = _Occurrence(
            facts=facts,
            key=(fingerprint, self._bindings_for(facts.names), self._config_digest),
            cacheable=not facts.has_substitution,
        )
        width = 1 if sequential else self.config.width
        entry = self._lookup(occurrence, width)
        if isinstance(entry, FailedPlan):
            with self.tracer.span(
                "jit:fallback", "jit", fingerprint=fingerprint, cached_failure=True
            ) as span:
                span.set(reason=entry.reason)
            self._record(occurrence, "fallback", entry.reason, cached_failure=True)
            return False, None
        if entry is None:
            try:
                entry = self._compile_plan(
                    occurrence,
                    width,
                    lambda: self._build(occurrence) if sequential else self._compile(occurrence),
                )
            except (UntranslatableRegion, ExpansionError) as exc:
                reason = str(exc)
                if occurrence.cacheable:
                    self.cache.put(
                        occurrence.key + (width,),
                        FailedPlan(reason=reason, fingerprint=fingerprint),
                    )
                with self.tracer.span(
                    "jit:fallback", "jit", fingerprint=fingerprint
                ) as span:
                    span.set(reason=reason)
                self._record(occurrence, "fallback", reason)
                return False, None

        backend = self.inner_backend
        #: What the report row and the span say about the shape that ran.
        planned: Dict[str, Any] = {"width": width}
        if auto:
            if not self._as_built:
                planning = time.perf_counter()
                decision = self._decide(occurrence, entry)
                occurrence.plan_seconds = time.perf_counter() - planning
                if decision is None:
                    planned = {"width": self.config.width}
                else:
                    planned = dataclasses.asdict(decision)
                width = planned["width"]
                entry = occurrence.plans[width]
            backend = "interpreter" if width == 1 else "parallel"
        action = "compiled" if width in occurrence.fresh else "cached"
        if action == "cached":
            with self.tracer.span(
                "jit:cache-hit", "jit", fingerprint=fingerprint
            ) as span:
                span.set(executions=entry.executions)

        started = time.perf_counter()

        def run_region() -> EngineResult:
            with self.tracer.span(
                "jit:region-execute",
                "jit",
                fingerprint=fingerprint,
                action=action,
                **planned,
            ):
                try:
                    return self._engine_backend(backend).execute(entry.graph, self.environment)
                except ValueError as exc:
                    if not auto:
                        raise
                    # A kernel refusing its arguments (bad flags) is an
                    # ExecutionError on the pool; the planner's choice must
                    # not change the error.
                    raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc

        resilience = self.config.resilience
        if resilience.active and backend in ("parallel", "cluster"):
            # Retry-then-degrade ladder around the inner engine.  The
            # interpreter is the ladder's landing ground and the shell
            # backend runs real commands with real side effects (a retry
            # could replay them), so supervision covers parallel/cluster:
            # both deliver a region's outputs to the environment only after
            # the whole region succeeded, so a failed attempt leaves no
            # partial state behind.  The degrade rung returns
            # ``(False, None)`` so the region re-runs on the driver's
            # inherited interpreter path — the same per-region fallback a
            # compilation refusal takes, and byte-identical by the paper's
            # correctness contract.
            outcome = supervise(
                resilience,
                self.tracer,
                f"jit-region:{fingerprint[:32]}",
                run_region,
                degrade=(lambda: None) if resilience.degrade else None,
                metrics_of=lambda _: self.metrics,
            )
            if outcome is None:
                reason = "degraded to interpreter after retries"
                self._record(occurrence, "fallback", reason)
                return False, None
            result = outcome
        else:
            result = run_region()
        elapsed = time.perf_counter() - started
        entry.executions += 1
        self.metrics.merge(result.metrics)
        self.state.last_status = 0
        self._record(occurrence, action, elapsed_seconds=elapsed, **planned)
        return True, result.stdout

    def _lookup(self, occurrence: "_Occurrence", width: int) -> Optional[PlanEntry]:
        """The cached plan (or refusal) of this region at ``width``."""
        entry = self.cache.get(occurrence.key + (width,)) if occurrence.cacheable else None
        if isinstance(entry, CompiledPlan):
            occurrence.plans[width] = entry
        return entry

    def _compile_plan(self, occurrence: "_Occurrence", width: int, compile_graph) -> CompiledPlan:
        """The region's plan at ``width``, its graph made by ``compile_graph()``."""
        started = time.perf_counter()
        with self.tracer.span(
            "jit:compile", "jit", fingerprint=occurrence.facts.fingerprint, width=width
        ) as span:
            graph, opt_report = compile_graph()
            span.set(nodes=len(graph.nodes))
        seconds = time.perf_counter() - started
        entry = CompiledPlan(
            graph=graph,
            report=opt_report,
            fingerprint=occurrence.facts.fingerprint,
        )
        occurrence.compile_seconds += seconds
        occurrence.plans[width] = entry
        occurrence.fresh.add(width)
        # Glob-dependent plans resolve against filesystem state that is
        # not part of the key, so they are compiled fresh every time.
        if occurrence.cacheable and not occurrence.saw_glob:
            self.cache.put(occurrence.key + (width,), entry)
        return entry

    def _decide(self, occurrence: "_Occurrence", sequential: CompiledPlan) -> Optional[RegionPlan]:
        """Size this execution from the live input; ``occurrence.plans`` holds
        the plan of the chosen width afterwards.

        A line count nobody can know (a file that does not exist yet) means
        no decision: the region runs at ``config.width`` on the pool, which
        reports the missing input as it always did.
        """

        def candidate(width: int):
            if not isinstance(self._lookup(occurrence, width), CompiledPlan):
                self._compile_plan(
                    occurrence, width, lambda: self._optimize(sequential.graph.copy(), width)
                )
            return occurrence.plans[width].graph

        input_lines: Dict[str, int] = {}
        in_memory = []
        for edge in sequential.graph.input_edges():
            if edge.kind is EdgeKind.FILE and edge.name:
                count = self._fs.line_count(edge.name)
                if count is None:
                    candidate(self.config.width)
                    return None
                input_lines[edge.name] = count
                if self._fs.real_path(edge.name) is None:
                    in_memory.append(edge.name)
        stdin_lines = len(self.environment.stdin)
        sizes = (stdin_lines, *sorted(input_lines.items()), *in_memory)
        if sequential.decided is None or sequential.decided[0] != sizes:
            decision = plan_region(
                sequential.graph,
                input_lines,
                self.config,
                stdin_lines=stdin_lines,
                compile_candidate=candidate,
                in_memory=in_memory,
            )
            sequential.decided = (sizes, decision)
        decision = sequential.decided[1]
        if decision.width not in occurrence.plans:
            candidate(decision.width)
        return decision

    def _build(self, occurrence: "_Occurrence"):
        """Translate the region into its sequential graph, with live bindings.

        The context is ``strict`` (anything unresolvable refuses, per PaSh)
        but ``complete``: the driver's state holds *every* set variable, so
        a missing name is genuinely unset and ``${VAR:-default}`` forms are
        decidable.  The live dict is adopted by reference so ``:=``
        assignments persist into driver state like on the fallback path.
        """
        context = ExpansionContext(
            self.state.variables,
            strict=True,
            positional=self.state.positional,
            last_status=self.state.last_status,
            command_runner=self._run_substitution,
            complete=True,
        )
        builder = DFGBuilder(self.library, context=context, filesystem=self._fs)
        graph = builder.build_from_node(occurrence.facts.node)
        graph.validate()
        occurrence.saw_glob = builder.saw_glob
        return graph, OptimizationReport()

    def _optimize(self, graph, width: int):
        """Run the pass pipeline over ``graph`` (in place) at ``width``."""
        config = self.config if width == self.config.width else self.config.replace(width=width)
        return graph, self._pipeline.run(graph, config, tracer=self.tracer)

    def _compile(self, occurrence: "_Occurrence"):
        """Build the region and run the existing pass pipeline over it."""
        graph, _ = self._build(occurrence)
        return self._optimize(graph, self.config.width)

    def _bindings_for(self, names) -> Tuple[Tuple[str, Optional[str]], ...]:
        """The referenced parameters' current values (the cache key's state part)."""
        entries: List[Tuple[str, Optional[str]]] = []
        for name in sorted(names):
            if name == "?":
                value: Optional[str] = str(self.state.last_status)
            elif name == "#":
                value = str(len(self.state.positional))
            elif name in ("@", "*"):
                value = "\x1f".join(self.state.positional)
            elif name.isdigit():
                index = int(name)
                if index == 0:
                    value = self.state.variables.get("0")
                elif index <= len(self.state.positional):
                    value = self.state.positional[index - 1]
                else:
                    value = None
            else:
                value = self.state.variables.get(name)
            entries.append((name, value))
        return tuple(entries)

    def _engine_backend(self, name: str) -> ExecutionBackend:
        """The named engine backend, created once and reused across regions."""
        engine = self._engines.get(name)
        if engine is None:
            options: Dict[str, Any] = {}
            if name in ("parallel", "cluster"):
                options.update(config=self.config, tracer=self.tracer)
            if name == "parallel" and self.pool is not None:
                options["pool"] = self.pool
            engine = self._engines[name] = create_backend(name, **options)
        return engine

    def _record(
        self,
        occurrence: "_Occurrence",
        action: str,
        reason: str = "",
        elapsed_seconds: float = 0.0,
        cached_failure: bool = False,
        **planned: Any,
    ) -> None:
        self.report.record(
            RegionOutcome(
                fingerprint=occurrence.facts.fingerprint,
                text=occurrence.facts.text,
                action=action,
                reason=reason,
                elapsed_seconds=elapsed_seconds,
                compile_seconds=occurrence.compile_seconds,
                plan_seconds=occurrence.plan_seconds,
                cached_failure=cached_failure,
                **planned,
            )
        )

    # ------------------------------------------------------------------
    # Interpreter hooks
    # ------------------------------------------------------------------

    def _run_substitution(self, text: str) -> str:
        """Memoize substitution results for the current region occurrence.

        The memo prevents a ``$(...)`` from running twice when a region
        expands it during a compilation attempt and then falls back to the
        interpreter (which would expand it again).
        """
        if self._active_memo is not None and text in self._active_memo:
            return self._active_memo[text]
        value = ShellInterpreter._run_substitution(self, text)
        if self._active_memo is not None:
            self._active_memo[text] = value
        return value
