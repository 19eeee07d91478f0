"""``CompiledScript`` — the inspectable artifact a compilation produces.

A compilation is no longer a one-way trip to shell text: the artifact keeps
the parsed AST, the discovered regions with their per-region dataflow graphs,
and the per-region :class:`~repro.transform.pipeline.OptimizationReport`
(including per-pass timings), alongside the emitted text.  Two methods close
the loop:

* :meth:`CompiledScript.emit` — re-render the parallel shell text, optionally
  under changed emission settings of the config (e.g. a scratch
  ``fifo_directory`` for a sandboxed run), and
* :meth:`CompiledScript.execute` — run the script on any registered engine
  backend through :func:`execute_script`, the one script driver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.dfg.builder import TranslationResult
from repro.dfg.graph import DataflowGraph
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shell.unparser import unparse
from repro.transform.pipeline import OptimizationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine/backend lazy)
    from repro.api.config import PashConfig
    from repro.jit.driver import JitResult
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

    def emit(self, config: Optional["PashConfig"] = None, **config_changes: Any) -> str:
        """Re-render the parallel shell text.

        With no arguments this returns the cached :attr:`text`.  Keyword
        ``config_changes`` re-emit every parallelized region under
        ``config.replace(**config_changes)`` (e.g. ``fifo_directory=`` or a
        pinned ``fifo_prefix=``); ``config`` stands in for the artifact's own.
        """
        if config is None and not config_changes:
            return self.text
        config = (config or self.config).replace(**config_changes)
        return render_script(self.translation, self.optimized_graphs, self.reports, config)

    def execute(
        self,
        backend: Optional[str] = None,
        environment: Optional["ExecutionEnvironment"] = None,
        **driver_options: Any,
    ) -> "JitResult":
        """Run the script this artifact was compiled from.

        The parsed AST goes to :func:`execute_script` with this artifact's
        config and tracer; ``backend`` defaults to the config's selection.
        :attr:`optimized_graphs` and :attr:`text` stay the inspectable plan:
        for a static script the driver compiles the same graphs at the same
        config, and ``repro.engine.run(graph, backend=...)`` runs one exact
        graph.
        """
        driver_options.setdefault("tracer", self.tracer)
        return execute_script(
            self.translation.ast, self.config, backend, environment, **driver_options
        )


#: Backend names accepted beside the registered engines, for whole scripts
#: only: ``jit`` is the driver itself sizing every region, not an engine.
SCRIPT_LEVEL_BACKENDS = ("jit",)


def execute_script(
    ast_or_source,
    config: Optional["PashConfig"],
    backend: Optional[str] = None,
    environment: Optional["ExecutionEnvironment"] = None,
    **driver_options: Any,
) -> "JitResult":
    """Run a whole script (source or parsed AST) — the one way a script runs.

    A :class:`~repro.jit.driver.JitDriver` walks the AST with live shell
    state, so ``;``, ``&&``/``||``, ``if``, ``for`` and ``while`` execute as
    the shell would; each pipeline it reaches is compiled with the bindings
    in force and handed to an engine, and a region that cannot be translated
    (an unannotated command, an unresolvable word) runs on the inherited
    interpreter path — per region, never for the whole script.

    ``backend`` (default: the config's, ``interpreter`` without one) picks
    that engine.  ``"jit"`` means the config's ``jit_inner_backend``
    (``auto``: every region sized from its live input); any other name pins
    that engine at exactly ``config.width`` — no planner, never in-process
    unless the engine is.  ``config=None`` runs each region's graph as
    built, without passes: the sequential baseline.  ``driver_options`` are
    the driver's keywords (``pool``, ``cache``, ``library``, ``tracer``,
    ``inner_backend`` for ``"jit"``).  The result names the backend that
    was asked for and always carries the driver's ``JitReport``.
    """
    from repro.jit.driver import JitDriver

    name = backend or (config.backend if config is not None else "interpreter")
    if name not in SCRIPT_LEVEL_BACKENDS:
        driver_options["inner_backend"] = name
    driver = JitDriver(config=config, environment=environment, **driver_options)
    result = driver.run(ast_or_source)
    result.backend = result.metrics.backend = name
    return result


def render_script(
    translation: TranslationResult,
    optimized_graphs: List[DataflowGraph],
    reports: List[OptimizationReport],
    config: "PashConfig",
) -> str:
    """Unparse the AST, substituting parallel fragments for optimized regions."""
    # Deferred: the emitter imports repro.api.config, whose package imports
    # this module.
    from repro.backend.shell_emitter import emit_parallel_script

    replacements: Dict[int, str] = {}
    for region, graph, report in zip(translation.regions, optimized_graphs, reports):
        if report.parallelized_count > 0:
            replacements[id(region.node)] = emit_parallel_script(graph, config).rstrip("\n")
    return unparse(translation.ast, replacements)
