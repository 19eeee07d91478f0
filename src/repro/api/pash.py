"""``Pash`` — the single front door for compiling and running scripts.

The compilation pipeline has three fixed script-level stages, with the middle
one configurable per-graph through the pass manager
(:mod:`repro.transform.passes`):

1. *front-end* — parse the script and discover parallelizable regions
   (:func:`repro.dfg.builder.translate_script`), translating each into a
   dataflow graph;
2. *optimization* — run the configured pass pipeline
   (``split-insertion → parallelize → aggregation-lowering → eager-relays``)
   over every region's graph, collecting one
   :class:`~repro.transform.pipeline.OptimizationReport` per region;
3. *back-end* — unparse the script with every parallelized region replaced by
   its Fig.-3-style parallel instantiation.

The result is an inspectable :class:`~repro.api.artifact.CompiledScript`,
which can :meth:`~repro.api.artifact.CompiledScript.emit` shell text or
:meth:`~repro.api.artifact.CompiledScript.execute` the script on any engine
backend.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.annotations.library import standard_library
from repro.api.artifact import (
    CompilationStats,
    CompiledScript,
    execute_script,
    render_script,
)
from repro.api.config import PashConfig
from repro.dfg.builder import translate_script
from repro.obs.tracer import NULL_TRACER, Tracer


class _HybridCompile:
    """Let ``compile`` work both as ``Pash.compile(src)`` and ``pash.compile(src)``.

    Called on the class, it binds to a fresh default-configured instance, so
    the README's ``Pash.compile(source, config)`` one-liner needs no setup.
    """

    def __get__(self, instance, owner):
        return (instance if instance is not None else owner())._compile


class Pash:
    """A configured compiler instance (and, optionally, an execution session).

    ``library`` is an optional :class:`~repro.annotations.library.AnnotationLibrary`
    overriding the standard parallelizability annotations; without one the
    standard library is resolved once, at the first :meth:`run`, and handed
    to every driver this instance constructs.

    Used as a context manager, a ``Pash`` becomes a *session* owning a
    private persistent worker pool for the parallel backend::

        with Pash(PashConfig.paper_default(4, backend="parallel")) as pash:
            for script in scripts:
                pash.run(script)        # worker processes are reused
        # pool shut down deterministically here

    Outside a ``with`` block, parallel runs draw from the process-wide
    shared pool (:func:`repro.engine.pool.shared_pool`), so startup is
    amortized either way; the session form only adds deterministic teardown
    and isolation.
    """

    compile = _HybridCompile()

    def __init__(
        self,
        config: Optional[Any] = None,
        library: Optional[Any] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = PashConfig.coerce(config)
        self.library = library
        #: The observability plane: one tracer covers every compile and run
        #: this instance performs.  Enabled by ``config.tracing`` (or by
        #: passing an explicit enabled tracer); export its spans with
        #: :mod:`repro.obs` (``export_chrome_trace(pash.tracer.spans, ...)``).
        if tracer is None:
            tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.tracer = tracer
        self._pool = None
        self._session = False

    # -- session lifecycle -------------------------------------------------

    def __enter__(self) -> "Pash":
        self._session = True
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the session's worker pool (idempotent)."""
        self._session = False
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _session_pool(self):
        """The session-private pool, created lazily at the session's first run."""
        if not self._session:
            return None
        if self._pool is None or self._pool.closed:
            from repro.engine.pool import WorkerPool

            self._pool = WorkerPool(size=self.config.jobs)
        return self._pool

    def _compile(
        self,
        source: str,
        config: Optional[Any] = None,
        context: Optional[Any] = None,
    ) -> CompiledScript:
        """Compile ``source`` into its data-parallel equivalent.

        ``config`` overrides the instance configuration for this call;
        ``context`` is an optional shell expansion context.
        """
        pash_config = self.config if config is None else PashConfig.coerce(config)
        tracer = self.tracer
        if not tracer.enabled and pash_config.tracing:
            # A per-call config turned tracing on: give this compilation (and
            # the artifact's executions) a live tracer of its own.
            tracer = Tracer()
        started = time.perf_counter()

        # Stage 1: front-end (parse + region discovery + DFG translation).
        with tracer.span("parse", "parse", source_bytes=len(source)) as parse_span:
            translation = translate_script(source, library=self.library, context=context)
            parse_span.set(
                regions=len(translation.regions), rejected=len(translation.rejected)
            )
        stats = CompilationStats(
            regions_found=len(translation.regions) + len(translation.rejected),
            regions_rejected=len(translation.rejected),
        )

        # Stage 2: the pass pipeline, once per region.
        pipeline = pash_config.pipeline()
        optimized_graphs = []
        reports = []
        for region in translation.regions:
            graph = region.dfg
            report = pipeline.run(graph, pash_config, tracer=tracer)
            stats.record_report(report)
            optimized_graphs.append(graph)
            reports.append(report)
            stats.total_nodes += len(graph.nodes)
            if report.parallelized_count > 0:
                stats.regions_parallelized += 1

        # Stage 3: back-end (emit the parallel script text).
        text = render_script(translation, optimized_graphs, reports, pash_config)

        stats.compile_time_seconds = time.perf_counter() - started
        return CompiledScript(
            source=source,
            text=text,
            stats=stats,
            translation=translation,
            optimized_graphs=optimized_graphs,
            reports=reports,
            config=pash_config,
            tracer=tracer,
        )

    def run(
        self,
        source: str,
        backend: Optional[str] = None,
        environment: Optional[Any] = None,
        **driver_options: Any,
    ):
        """Execute ``source`` immediately (one-call form).

        Nothing is compiled ahead of time: the source is parsed once and
        driven by :func:`~repro.api.artifact.execute_script` (control flow
        executes in-process; each region compiles with live bindings when it
        is reached) with this instance's config, library and tracer.  A
        session's private worker pool is shared with the driver's parallel
        engine, so worker processes persist across regions *and* scripts.
        """
        if "pool" not in driver_options:
            driver_options["pool"] = self._session_pool()
        if self.library is None:
            self.library = standard_library()
        driver_options.setdefault("library", self.library)
        driver_options.setdefault("tracer", self.tracer)
        return execute_script(source, self.config, backend, environment, **driver_options)


def compile(  # noqa: A001 - deliberate: the API's verb is `compile`
    source: str,
    config: Optional[Any] = None,
    library: Optional[Any] = None,
    context: Optional[Any] = None,
) -> CompiledScript:
    """Module-level convenience: ``repro.api.compile(source, config)``."""
    return Pash(config, library=library).compile(source, context=context)


def optimize(graph, config: Optional[Any] = None, tracer: Optional[Tracer] = None):
    """Run the configured pass pipeline over one translated graph, in place.

    ``config`` is a :class:`PashConfig` or ``None`` (defaults); returns the
    :class:`~repro.transform.pipeline.OptimizationReport`.
    """
    pash_config = PashConfig.coerce(config)
    return pash_config.pipeline().run(graph, pash_config, tracer=tracer)


def run(
    source: str,
    config: Optional[Any] = None,
    backend: Optional[str] = None,
    environment: Optional[Any] = None,
    **driver_options: Any,
):
    """Execute a whole shell script: :func:`~repro.api.artifact.execute_script`.

    With ``config=None`` every region runs *unoptimized* (the sequential
    graph shape) — the baseline the evaluation harness measures against.
    Passing a config compiles each region through the pass pipeline when it
    is reached.  Control flow runs as the shell would run it on every
    backend; an untranslatable region runs on the interpreter path.
    """
    pash_config = PashConfig.coerce(config) if config is not None else None
    return execute_script(source, pash_config, backend, environment, **driver_options)
