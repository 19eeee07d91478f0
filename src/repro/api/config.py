"""``PashConfig`` — every knob of a compilation in one frozen object.

The paper's pitch is *light-touch*: a script plus one knob (the width).
:class:`PashConfig` is the only configuration object on the run path: the
pass pipeline, the JIT driver, the evaluation harness, the parallel
scheduler, the cluster coordinator and the shell emitter read it directly.
The cluster tier's deployment settings are a section of it
(:class:`ClusterOptions`, ``PashConfig.cluster``); the one option type
outside it is :class:`~repro.service.daemon.ServiceOptions` (a daemon's
listen address, executor count and quotas), which carries a ``PashConfig``.

The object is frozen (hashable, safe to share across regions and threads)
and round-trips through plain JSON-able dicts (:meth:`to_dict` /
:meth:`from_dict`): the plan cache keys compilations on that form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.resilience.fault import FaultPlan, FaultSpec, load_fault_file
from repro.resilience.retry import RetryPolicy
from repro.transform.pipeline import EagerMode, SplitMode


class _Section:
    """The dict round-trip every frozen config section shares.

    A section declares only its tuple-typed fields in ``_TUPLES`` (lists in
    the dict form): the item class when items carry their own
    ``to_dict``/``from_dict``, ``None`` for plain values.
    """

    _TUPLES: Dict[str, Optional[type]] = {}

    def to_dict(self) -> Dict[str, Any]:
        payload = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        for name, item_type in self._TUPLES.items():
            payload[name] = [item.to_dict() if item_type else item for item in payload[name]]
        return payload

    @classmethod
    def coerce(cls, value: Any) -> Any:
        """Accept an instance of the section or its dict form."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - {field.name for field in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"unknown {cls.__name__} fields: {', '.join(sorted(unknown))}")
            # ``None`` asks for the default (only fields defaulting to None are optional).
            values = {name: item for name, item in value.items() if item is not None}
            for name, item_type in cls._TUPLES.items():
                if name in values:
                    values[name] = tuple(
                        item_type.from_dict(item)
                        if item_type and not isinstance(item, item_type)
                        else item
                        for item in values[name]
                    )
            return cls(**values)
        raise TypeError(f"expected {cls.__name__} or mapping, got {type(value).__name__}")


@dataclass(frozen=True)
class StreamingConfig(_Section):
    """The engine's bounded-memory streaming knobs (one section of the config).

    The parallel engine moves data in framed byte chunks and buffers each
    edge in a spill-to-disk eager relay (dgsh-tee behaviour, §5.2): at most
    ``spill_threshold`` bytes of a stream sit in memory per buffer; anything
    beyond spills to a temp file and is restored in order.
    """

    #: Framing-chunk size in bytes: the granularity of channel writes,
    #: incremental reads, and stateless batch evaluation.
    chunk_size: int = 64 * 1024
    #: In-memory buffer size in bytes per stream buffer (eager-pump window /
    #: graph-output accumulator) — the spill high-water mark.
    spill_threshold: int = 8 * 1024 * 1024
    #: Directory for spill files (None = the system temp directory).
    spill_directory: Optional[str] = None


@dataclass(frozen=True)
class ClusterOptions(_Section):
    """The distributed tier's deployment settings (one section of the config).

    With ``connect`` unset the coordinator runs in localhost mode: it binds
    an ephemeral port and spawns ``workers`` ``pash-worker`` processes
    itself, so the tier is testable without SSH.  With ``connect`` set to a
    ``HOST:PORT`` address the coordinator listens there and waits for
    ``workers`` externally-started ``pash-worker --connect`` registrations.
    The run's deadline, host-command switch, streaming knobs and fault plan
    are the :class:`PashConfig`'s own, as for the parallel backend.
    """

    #: Worker count: processes to spawn (localhost mode) or registrations to
    #: wait for (``connect`` mode).
    workers: int = 2
    #: ``HOST:PORT`` to listen on for external workers (None = localhost mode).
    connect: Optional[str] = None
    #: Seconds between worker heartbeats.
    heartbeat_interval: float = 0.5
    #: Seconds of heartbeat silence after which a worker is declared lost
    #: and its in-flight task requeued.
    heartbeat_timeout: float = 10.0
    #: How long to wait for the expected workers to register at startup.
    register_timeout_seconds: float = 30.0


@dataclass(frozen=True)
class ResilienceConfig(_Section):
    """The supervision tier's knobs (one section of the config).

    Inactive by default (``max_retries=0``, ``degrade=False``): runs fail
    exactly as they always did.  Turning either knob on arms the
    retry-then-degrade ladder around engine runs, JIT regions, and service
    jobs — see ``docs/RESILIENCE.md``.  ``faults`` + ``fault_seed`` describe
    a deterministic :class:`~repro.resilience.fault.FaultPlan` for chaos
    runs (the CLI loads them from ``--fault-plan FILE.json``).
    """

    #: Retries per supervised run after the first attempt (0 = no retries).
    max_retries: int = 0
    #: After retries are exhausted, re-run on the sequential interpreter
    #: (always byte-identical by the paper's correctness contract).
    degrade: bool = False
    #: Exponential-backoff schedule: first delay and jitter fraction (the
    #: cap is :class:`~repro.resilience.retry.RetryPolicy`'s default).
    retry_base_seconds: float = 0.05
    retry_jitter: float = 0.5
    #: Overall wall-clock budget across all attempts of one supervised run;
    #: 0 = unbounded (each attempt is still bounded by the engine's own
    #: report timeout, so runs never hang).
    deadline_seconds: float = 0.0
    #: Seed for fault determinism and backoff jitter.
    fault_seed: int = 0
    #: Injected faults (empty = none); frozen specs keep the config hashable.
    faults: Tuple[FaultSpec, ...] = ()

    _TUPLES = {"faults": FaultSpec}

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("ResilienceConfig.max_retries must be >= 0")
        if self.retry_base_seconds < 0:
            raise ValueError("ResilienceConfig backoff seconds must be >= 0")
        if self.deadline_seconds < 0:
            raise ValueError("ResilienceConfig.deadline_seconds must be >= 0")

    @property
    def active(self) -> bool:
        """Whether any supervision rung (retry or degrade) is armed."""
        return self.max_retries > 0 or self.degrade

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            base_seconds=self.retry_base_seconds,
            jitter=self.retry_jitter,
            deadline_seconds=self.deadline_seconds,
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        """A fresh plan with pristine counters, or None without faults."""
        if not self.faults:
            return None
        return FaultPlan(self.faults, seed=self.fault_seed)

    @classmethod
    def from_cli_args(cls, arguments: Any) -> "ResilienceConfig":
        """Build the section from ``--max-retries/--no-degrade/--fault-plan``.

        Shared by ``pash-compile`` and ``pash-serve``.  Passing
        ``--max-retries`` or ``--fault-plan`` arms the ladder; degradation
        then defaults on unless ``--no-degrade`` opts out.
        """
        max_retries, fault_path = arguments.max_retries, arguments.fault_plan
        plan = load_fault_file(fault_path) if fault_path else FaultPlan()
        engaged = max_retries is not None or fault_path is not None
        return cls(
            max_retries=max_retries or 0,
            degrade=engaged and not arguments.no_degrade,
            fault_seed=plan.seed,
            faults=plan.faults,
        )


@dataclass(frozen=True)
class ObsConfig(_Section):
    """The continuous-telemetry knobs (one section of the config).

    Controls *how much* observability a long-running process records, not
    whether runs are correct — so, like :class:`ResilienceConfig`, the whole
    section is excluded from the plan-cache digest: a sampled daemon and an
    unsampled one compile identical graphs.  ``tracing`` itself stays a
    top-level :class:`PashConfig` field; these knobs shape what an enabled
    tracer keeps under sustained traffic (see ``docs/OBSERVABILITY.md``).
    """

    #: Fraction of jobs whose spans are recorded (1.0 = every job, the
    #: per-run behaviour; the daemon consults a
    #: :class:`~repro.obs.sampler.TraceSampler`).
    trace_sample_ratio: float = 1.0
    #: Tenants always traced regardless of the ratio (debugging one tenant
    #: without paying for the rest).
    sample_tenants: Tuple[str, ...] = ()
    #: Ring-buffer cap on retained spans in a long-running tracer
    #: (0 = unbounded, the one-shot default).
    span_retention: int = 0

    _TUPLES = {"sample_tenants": None}

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_ratio <= 1.0:
            raise ValueError("ObsConfig.trace_sample_ratio must be in [0, 1]")
        if self.span_retention < 0:
            raise ValueError("ObsConfig.span_retention must be >= 0")

    @classmethod
    def from_cli_args(cls, arguments: Any) -> "ObsConfig":
        """Build the section from ``--trace-sample``/``--sample-tenant``/
        ``--span-retention`` (shared by ``pash-serve``)."""
        ratio = arguments.trace_sample
        return cls(
            trace_sample_ratio=1.0 if ratio is None else ratio,
            sample_tenants=tuple(arguments.sample_tenant or ()),
            span_retention=arguments.span_retention or 0,
        )


@dataclass(frozen=True)
class PashConfig:
    """One configuration object for the whole compile-and-run pipeline."""

    # -- optimizer knobs ------------------------------------------------------
    #: Parallelism width: how many copies each parallelizable command becomes.
    width: int = 2
    #: How relay nodes buffer data (t3).
    eager: EagerMode = EagerMode.EAGER
    #: Which split implementation (if any) transformation t2 inserts.
    split: SplitMode = SplitMode.GENERAL
    #: Fan-in of the aggregation tree for pure commands (2 = binary tree).
    aggregation_fan_in: int = 2
    #: Collapse linear stateless chains into single-worker fused stages
    #: (the ``fuse-stages`` pass).  On by default: one worker evaluating
    #: ``grep | tr | cut`` in-process beats three processes joined by pipes
    #: and pump threads.  Paper-shape reproductions (Table 2, the simulated
    #: figures) pin this off explicitly.
    fuse_stages: bool = True

    # -- pass-pipeline toggles ----------------------------------------------
    #: Default passes removed from the pipeline by name (ablations).
    disabled_passes: Tuple[str, ...] = ()
    #: Registered non-default passes appended to the pipeline by name.
    extra_passes: Tuple[str, ...] = ()

    # -- execution ------------------------------------------------------------
    #: Engine backend used by ``CompiledScript.execute`` when none is given.
    backend: str = "interpreter"
    #: Exec real host binaries in the parallel backend's workers when possible.
    use_host_commands: bool = False
    #: How long the parallel scheduler waits for a worker report.
    report_timeout_seconds: float = 120.0
    #: Worker-pool size for the parallel backend (the CLI's ``--jobs``): the
    #: shared pool is pre-warmed to this many processes and grows on demand.
    #: ``None`` = fully lazy; ``0`` = no pool, one fresh fork per node per run.
    jobs: Optional[int] = None
    #: Bounded-memory streaming knobs of the engine data plane.
    streaming: StreamingConfig = StreamingConfig()
    #: Distributed-tier settings (worker count, listen address, heartbeats).
    cluster: ClusterOptions = ClusterOptions()
    #: Supervised retry/degrade + fault injection (inactive by default).
    resilience: ResilienceConfig = ResilienceConfig()
    #: What the script driver runs compiled regions on under ``backend="jit"``
    #: (any other ``backend`` pins that engine at exactly ``width``).
    #: ``"auto"``: the region planner sizes every region execution from its
    #: live input, at most ``min(width, cores)`` wide — width 1 runs the
    #: sequential graph in-process, anything wider on the worker pool.
    #: Any engine backend name: exactly ``width``, on that engine.
    jit_inner_backend: str = "auto"

    # -- observability --------------------------------------------------------
    #: Record spans for the whole compile-and-run pipeline (parse, passes,
    #: JIT decisions, scheduler phases, per-node workers).  Off by default;
    #: when off the span hooks cost one attribute check each.  See
    #: ``docs/OBSERVABILITY.md`` and the CLI's ``--trace``/``--metrics-json``.
    tracing: bool = False
    #: Continuous-telemetry knobs for long-running processes (trace sampling,
    #: span retention).  Runtime-only: excluded from the plan-cache digest.
    obs: ObsConfig = ObsConfig()

    # -- emission (read by repro.backend.shell_emitter) ----------------------
    #: Directory in which the emitted script creates its FIFOs.
    fifo_directory: str = "/tmp"
    #: Fixed FIFO-name prefix; None picks a unique per-emission prefix.
    fifo_prefix: Optional[str] = None

    # -- named constructors ---------------------------------------------------

    @classmethod
    def paper_default(cls, width: int, **overrides: Any) -> "PashConfig":
        """The ``Par + Split`` configuration used for the headline results."""
        return cls(width=width, eager=EagerMode.EAGER, split=SplitMode.GENERAL, **overrides)

    @classmethod
    def no_eager(cls, width: int, **overrides: Any) -> "PashConfig":
        return cls(width=width, eager=EagerMode.NONE, split=SplitMode.NONE, **overrides)

    @classmethod
    def blocking_eager(cls, width: int, **overrides: Any) -> "PashConfig":
        return cls(width=width, eager=EagerMode.BLOCKING, split=SplitMode.NONE, **overrides)

    @classmethod
    def parallel_only(cls, width: int, **overrides: Any) -> "PashConfig":
        return cls(width=width, eager=EagerMode.EAGER, split=SplitMode.NONE, **overrides)

    @classmethod
    def blocking_split(cls, width: int, **overrides: Any) -> "PashConfig":
        return cls(width=width, eager=EagerMode.EAGER, split=SplitMode.INPUT_AWARE, **overrides)

    @classmethod
    def named_configurations(cls, width: int) -> Dict[str, "PashConfig"]:
        """The named configurations plotted in Fig. 7 for a given width."""
        return {
            "Par + Split": cls.paper_default(width),
            "Par + B. Split": cls.blocking_split(width),
            "Parallel": cls.parallel_only(width),
            "Blocking Eager": cls.blocking_eager(width),
            "No Eager": cls.no_eager(width),
        }

    @classmethod
    def from_cli_args(cls, arguments: Any) -> "PashConfig":
        """Build a config from the ``pash-compile`` argparse namespace."""
        if arguments.no_eager:
            eager = EagerMode.NONE
        elif arguments.blocking_eager:
            eager = EagerMode.BLOCKING
        else:
            eager = EagerMode.EAGER
        return cls(
            width=arguments.width,
            eager=eager,
            split=SplitMode(arguments.split),
            aggregation_fan_in=arguments.fan_in,
            disabled_passes=tuple(arguments.disable_pass or ()),
            backend=arguments.execute or "interpreter",
            jobs=arguments.jobs,
            cluster=ClusterOptions(
                workers=arguments.cluster_workers or 2, connect=arguments.cluster_connect
            ),
            resilience=ResilienceConfig.from_cli_args(arguments),
            jit_inner_backend=arguments.jit_backend or "auto",
            tracing=bool(arguments.trace or arguments.metrics_json),
        )

    @classmethod
    def coerce(cls, config: Optional["PashConfig"] = None) -> "PashConfig":
        """``None`` means the defaults; anything else must be a :class:`PashConfig`."""
        if config is None:
            return cls()
        if isinstance(config, cls):
            return config
        raise TypeError(f"expected PashConfig, got {type(config).__name__}")

    def replace(self, **changes: Any) -> "PashConfig":
        """A copy with the given fields changed (the object is frozen)."""
        return dataclasses.replace(self, **changes)

    def pipeline(self):
        """The pass manager this configuration selects."""
        from repro.transform.passes import build_pipeline

        return build_pipeline(disabled=self.disabled_passes, extra=self.extra_passes)

    def emitter_options(self) -> "PashConfig":
        """``self`` — the emission settings are this config's own fields (kept
        for pash-bench's ``compiled.emit(config.emitter_options())``)."""
        return self

    # -- round-trippable serialization (the plan-cache key) ------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-able dict; ``from_dict`` restores an equal config."""
        payload: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, (EagerMode, SplitMode)):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, _Section):
                value = value.to_dict()
            payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PashConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - field_names
        if unknown:
            raise ValueError(f"unknown PashConfig fields: {', '.join(sorted(unknown))}")
        values: Dict[str, Any] = dict(payload)
        for name, decode in _DECODERS.items():
            if name in values:
                values[name] = decode(values[name])
        return cls(**values)


#: Dict form -> field value, for the fields whose dict form is not the value.
_DECODERS = {
    "eager": EagerMode,
    "split": SplitMode,
    "disabled_passes": tuple,
    "extra_passes": tuple,
    "streaming": StreamingConfig.coerce,
    "cluster": ClusterOptions.coerce,
    "resilience": ResilienceConfig.coerce,
    "obs": ObsConfig.coerce,
}
