"""``CompiledScript`` — the inspectable artifact a compilation produces.

A compilation is no longer a one-way trip to shell text: the artifact keeps
the parsed AST, the discovered regions with their per-region dataflow graphs,
and the per-region :class:`~repro.transform.pipeline.OptimizationReport`
(including per-pass timings), alongside the emitted text.  Two methods close
the loop:

* :meth:`CompiledScript.emit` — re-render the parallel shell text, optionally
  with different :class:`~repro.backend.shell_emitter.EmitterOptions`
  (e.g. a scratch FIFO directory for a sandboxed run), and
* :meth:`CompiledScript.execute` — run the optimized graphs on any registered
  engine backend (``interpreter`` | ``parallel`` | ``shell``), sharing one
  :class:`~repro.runtime.executor.ExecutionEnvironment` across regions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.dfg.builder import TranslationResult
from repro.dfg.graph import DataflowGraph
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience import fault
from repro.resilience.supervisor import supervise
from repro.shell.unparser import unparse
from repro.transform.pipeline import OptimizationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine/backend lazy)
    from repro.api.config import PashConfig, ResilienceConfig
    from repro.backend.shell_emitter import EmitterOptions
    from repro.engine.api import EngineResult
    from repro.runtime.executor import ExecutionEnvironment


@dataclass
class CompilationStats:
    """Aggregate statistics for one compilation (feeds Table 2)."""

    regions_found: int = 0
    regions_parallelized: int = 0
    regions_rejected: int = 0
    total_nodes: int = 0
    parallelized_commands: List[str] = field(default_factory=list)
    compile_time_seconds: float = 0.0

    def record_report(self, report: OptimizationReport) -> None:
        self.parallelized_commands.extend(report.parallelized_commands)

    def to_dict(self) -> Dict[str, Any]:
        """Stable flat-JSON schema: exactly the dataclass fields."""
        payload = {
            stats_field.name: getattr(self, stats_field.name)
            for stats_field in dataclasses.fields(self)
        }
        payload["parallelized_commands"] = list(self.parallelized_commands)
        return payload


@dataclass
class CompiledScript:
    """Result of :meth:`repro.api.Pash.compile`."""

    source: str
    text: str
    stats: CompilationStats
    translation: TranslationResult
    optimized_graphs: List[DataflowGraph] = field(default_factory=list)
    reports: List[OptimizationReport] = field(default_factory=list)
    config: Optional["PashConfig"] = None
    #: The tracer that recorded this compilation's spans (parse + passes);
    #: :meth:`execute` threads it through the engine so one trace covers the
    #: whole pipeline.  Disabled (``NULL_TRACER``) unless ``config.tracing``.
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    @property
    def ast(self) -> Node:
        """The parsed shell AST of the source script."""
        return self.translation.ast

    @property
    def regions(self):
        """The discovered parallelizable regions (with their DFGs)."""
        return self.translation.regions

    @property
    def node_count(self) -> int:
        """Total runtime processes across all optimized regions (Table 2)."""
        return sum(len(graph.nodes) for graph in self.optimized_graphs)

    def emit(self, options: Optional["EmitterOptions"] = None) -> str:
        """Re-render the parallel shell text.

        With no ``options`` this returns the cached :attr:`text`; passing
        :class:`EmitterOptions` re-emits every parallelized region (e.g. with
        a different FIFO directory or a pinned prefix).
        """
        if options is None:
            return self.text
        return render_script(self.translation, self.optimized_graphs, self.reports, options)

    def execute(
        self,
        backend: Optional[str] = None,
        environment: Optional["ExecutionEnvironment"] = None,
        **backend_options: Any,
    ) -> "EngineResult":
        """Run the compiled graphs on an engine backend.

        ``backend`` defaults to the config's backend selection; per-backend
        constructor options default to the config's as well (e.g. the
        parallel scheduler's) unless overridden here.  Regions execute in
        script order sharing one environment, exactly like running the
        script top to bottom.  Raises
        :class:`~repro.runtime.executor.ExecutionError` when part of the
        source was not translated — executing only the translated regions
        would silently drop the rest of the script.

        ``backend="jit"`` is the exception to that refusal: the whole parsed
        AST is handed to a :class:`~repro.jit.driver.JitDriver`, which
        executes control flow itself, re-compiles each region with the
        bindings in force when it is reached, and falls back per region —
        so partially-translatable scripts run (and parallelize) instead of
        erroring.
        """
        name, backend_options = resolve_backend(self.config, backend, backend_options)
        mark = self.tracer.mark()
        if name == "jit":
            backend_options.setdefault("tracer", self.tracer)
            result = execute_jit(
                self.translation.ast, self.config, environment, backend_options
            )
        else:
            if self.translation.rejected:
                raise rejection_error(self.translation.rejected)
            result = execute_graphs(
                self.optimized_graphs, name, environment, backend_options,
                tracer=self.tracer,
                resilience=self.config.resilience if self.config else None,
            )
        if self.tracer.enabled:
            # Per-run view: spans recorded during this execute() call.  The
            # compile-time spans (parse, passes) stay on the tracer itself.
            result.spans = self.tracer.since(mark)
        return result


def rejection_error(rejected) -> "Exception":
    """The shared refusal for scripts that were not fully translated.

    Executing only the translated regions would silently drop the rejected
    statements' effects, so both front-door execution paths
    (:meth:`CompiledScript.execute` and :func:`repro.api.run`) refuse with
    this error rather than return wrong output.
    """
    from repro.runtime.executor import ExecutionError

    reasons = "; ".join(reason for _, reason in rejected)
    return ExecutionError(
        f"{len(rejected)} region(s) of the script cannot be translated for "
        f"engine execution: {reasons}; run the emitted script under a shell "
        "instead"
    )


def resolve_backend(
    config: Optional["PashConfig"],
    backend: Optional[str],
    backend_options: Optional[Dict[str, Any]],
):
    """Pick the backend name and constructor options for one execution.

    An explicit ``backend`` wins over the config's selection; the config's
    derived options (e.g. the parallel scheduler's) form the base and
    explicit ``backend_options`` override them key by key — so a session can
    add ``pool=...`` without losing the config's scheduler options.
    """
    name = backend or (config.backend if config is not None else "interpreter")
    options: Dict[str, Any] = config.backend_options(name) if config is not None else {}
    options.update(backend_options or {})
    return name, options


def execute_jit(
    ast_or_source,
    config: Optional["PashConfig"],
    environment: Optional["ExecutionEnvironment"] = None,
    backend_options: Optional[Dict[str, Any]] = None,
):
    """Run a script (or parsed AST) through a :class:`~repro.jit.JitDriver`.

    The shared jit tail of :meth:`CompiledScript.execute` and
    :func:`repro.api.run`.  ``backend_options`` accepts the driver's
    keywords (``inner_backend``, ``pool``, ``cache``…); a ``config`` key
    from :meth:`PashConfig.backend_options` is dropped in favour of the
    explicit ``config`` argument.
    """
    from repro.jit.driver import JitDriver

    options = dict(backend_options or {})
    options.pop("config", None)
    driver = JitDriver(config=config, environment=environment, **options)
    return driver.run(ast_or_source)


def execute_graphs(
    graphs: List[DataflowGraph],
    backend: str,
    environment: Optional["ExecutionEnvironment"] = None,
    backend_options: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    resilience: Optional["ResilienceConfig"] = None,
) -> "EngineResult":
    """Execute graphs in order on one backend, sharing one environment.

    The common tail of :meth:`CompiledScript.execute` and
    :func:`repro.api.run`: each graph's result is folded into one combined
    :class:`~repro.engine.api.EngineResult` — the engine-level equivalent of
    running the script top to bottom.  ``tracer`` records one ``region:N``
    span per graph (and is handed to the parallel scheduler for its own).

    With an *active* ``resilience`` section each region runs under the
    retry-then-degrade ladder: a region whose parallel/cluster execution
    keeps failing (crashed worker, exhausted disk) is retried with backoff
    and finally re-run on the sequential interpreter, which is byte-identical
    by the paper's correctness contract.  Region-level supervision is safe
    because every engine backend delivers a region's outputs to the
    environment only after the whole region succeeded — a failed attempt
    never leaves partial state behind.  An active fault plan in the config
    is also installed process-globally for the duration of the run, arming
    coordinator-side fault points (worker-side points travel inside the
    worker plans).
    """
    from repro import engine  # deferred: keeps the artifact importable early
    from repro.runtime.executor import ExecutionEnvironment

    tracer = tracer or NULL_TRACER
    environment = environment or ExecutionEnvironment()
    options = dict(backend_options or {})
    if backend in ("parallel", "cluster"):
        options.setdefault("tracer", tracer)
    engine_backend = engine.create_backend(backend, **options)
    combined = engine.EngineResult(backend=engine_backend.name)
    # The interpreter is the ladder's landing ground (nothing to degrade
    # to) and the shell backend runs real commands with real side effects
    # (a retry could replay them), so supervision covers parallel/cluster.
    supervised = (
        resilience is not None
        and resilience.active
        and backend in ("parallel", "cluster")
    )
    plan = resilience.fault_plan() if resilience is not None else None
    previous_plan = fault.active()
    if plan is not None:
        fault.install(plan)
    try:
        for index, graph in enumerate(graphs):

            def attempt(graph=graph, index=index):
                with tracer.span(f"region:{index}", "engine", nodes=len(graph.nodes)):
                    return engine_backend.execute(graph, environment)

            def degrade(graph=graph):
                return engine.create_backend("interpreter").execute(graph, environment)

            if supervised:
                region_result = supervise(
                    resilience, tracer, f"region:{index}", attempt, degrade
                )
            else:
                region_result = attempt()
            # The caller slices per-run spans off the tracer; per-region
            # results must not be double-counted through absorb().
            region_result.spans = []
            combined.absorb(region_result)
    finally:
        if plan is not None:
            # Restore (not clear): the service daemon installs a job-level
            # plan around the whole attempt ladder, and a nested region
            # execution must not wipe it out.
            fault.install(previous_plan)
    combined.metrics.backend = engine_backend.name
    return combined


def render_script(
    translation: TranslationResult,
    optimized_graphs: List[DataflowGraph],
    reports: List[OptimizationReport],
    options: "EmitterOptions",
) -> str:
    """Unparse the AST, substituting parallel fragments for optimized regions."""
    # Deferred: repro.backend's package init imports this module for the
    # legacy re-exports, so a module-level import here would be circular.
    from repro.backend.shell_emitter import emit_parallel_script

    replacements: Dict[int, str] = {}
    for region, graph, report in zip(translation.regions, optimized_graphs, reports):
        if report.parallelized_count > 0:
            replacements[id(region.node)] = emit_parallel_script(graph, options).rstrip("\n")
    return unparse(translation.ast, replacements)
