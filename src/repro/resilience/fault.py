"""Seedable fault injection: named points, a deterministic plan, one injector.

Every layer that can fail in production exposes a **named fault point**:

==================== =======================================================
``pool:worker-exec`` start of a pool/cluster worker's task execution
``spill:write``      every spill write: the one in ``SpillBuffer`` — which
                     the in-process interpreter never creates, so degraded
                     runs always land on clean ground
``cluster:heartbeat`` a cluster worker's periodic heartbeat send
``service:executor`` start of a service-daemon job execution attempt
``channel:read``     each chunk read off an engine channel (byte-counted)
==================== =======================================================

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a seed.
Specs are frozen dataclasses so they can live inside the (hashable)
``PashConfig``.  The plan is deterministic under its seed: per-spec byte and
fire counters advance in call order, and probabilistic specs draw from
``random.Random(seed)``, so a chaos run replays exactly.

The plan travels three ways:

* **in-process** sites consult the module-global injector
  (:func:`install` / :func:`fire`);
* **pool workers** receive it as the picklable ``faults`` field of their
  ``WorkerPlan`` (unpickling resets counters — fault state is per-process);
* **cluster workers** (separate executables) read the ``PASH_FAULTS``
  environment variable at startup (:func:`install_from_environ`).

This replaces the ad-hoc SIGKILL / corrupt-file rigs from the scheduler and
cluster test suites with one shared, reproducible harness.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import random
import signal
import threading
import time
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

POOL_WORKER_EXEC = "pool:worker-exec"
SPILL_WRITE = "spill:write"
CLUSTER_HEARTBEAT = "cluster:heartbeat"
SERVICE_EXECUTOR = "service:executor"
CHANNEL_READ = "channel:read"

FAULT_POINTS = (
    POOL_WORKER_EXEC,
    SPILL_WRITE,
    CLUSTER_HEARTBEAT,
    SERVICE_EXECUTOR,
    CHANNEL_READ,
)

MODE_KILL = "kill"  # SIGKILL the current process (worker crash)
MODE_ERROR = "error"  # raise OSError(errno_name) at the point
MODE_DELAY = "delay"  # sleep delay_seconds (slow disk / slow peer)
MODE_DROP = "drop"  # tell the site to skip its action (lost frame)

FAULT_MODES = (MODE_KILL, MODE_ERROR, MODE_DELAY, MODE_DROP)

#: Environment variable carrying a JSON fault plan into exec'd workers.
ENV_FAULTS = "PASH_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, how, and when it triggers."""

    point: str
    mode: str = MODE_ERROR
    #: Fire only once this many bytes have passed the point (kill-after-N).
    after_bytes: int = 0
    #: How many times this spec may fire; 0 means unlimited.
    max_fires: int = 1
    #: Seeded-random chance of firing per eligible passage.
    probability: float = 1.0
    #: For ``mode="error"``: which errno the injected OSError carries.
    errno_name: str = "ENOSPC"
    #: For ``mode="delay"``: how long the point stalls.
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of {FAULT_POINTS}"
            )
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {FAULT_MODES}"
            )
        if not hasattr(_errno, self.errno_name):
            raise ValueError(f"unknown errno name {self.errno_name!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("FaultSpec probability must be within [0, 1]")
        if self.after_bytes < 0 or self.max_fires < 0 or self.delay_seconds < 0:
            raise ValueError("FaultSpec counters must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(values, Mapping):
            raise ValueError(f"a fault spec must be a mapping, got {type(values).__name__}")
        known = {field.name for field in dataclass_fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**dict(values))


class _SpecState:
    __slots__ = ("bytes_seen", "fires")

    def __init__(self) -> None:
        self.bytes_seen = 0
        self.fires = 0


class FaultPlan:
    """A seeded, deterministic set of faults plus per-spec live counters."""

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in faults
        )
        self.seed = seed
        #: Total hook passages while this plan was installed (all points).
        self.hits = 0
        #: Total faults actually triggered.
        self.fired = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._states = [_SpecState() for _ in self.faults]
        self._by_point: Dict[str, List[int]] = {}
        for index, spec in enumerate(self.faults):
            self._by_point.setdefault(spec.point, []).append(index)

    def __reduce__(self):
        # A worker's copy starts pristine: fault state is per-process, so a
        # plan that already fired in the parent re-arms on every dispatch.
        return (FaultPlan, (self.faults, self.seed))

    # ------------------------------------------------------------------

    def fire(self, point: str, nbytes: int = 0) -> bool:
        """Advance counters at ``point``; acts out any fault that triggers.

        Returns ``True`` when a ``drop``-mode fault fired — the caller must
        then skip its action (e.g. swallow the heartbeat).  ``error``-mode
        faults raise ``OSError`` here; ``kill`` never returns.
        """
        self.hits += 1
        indexes = self._by_point.get(point)
        if not indexes:
            return False
        drop = False
        delay = 0.0
        with self._lock:
            for index in indexes:
                spec = self.faults[index]
                state = self._states[index]
                state.bytes_seen += nbytes
                if spec.max_fires and state.fires >= spec.max_fires:
                    continue
                if state.bytes_seen < spec.after_bytes:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                state.fires += 1
                self.fired += 1
                if spec.mode == MODE_KILL:
                    os.kill(os.getpid(), signal.SIGKILL)
                elif spec.mode == MODE_ERROR:
                    code = getattr(_errno, spec.errno_name)
                    raise OSError(code, f"injected fault at {point}")
                elif spec.mode == MODE_DELAY:
                    delay += spec.delay_seconds
                else:
                    drop = True
        if delay:
            time.sleep(delay)
        return drop

    def fires_at(self, point: str) -> int:
        """How many times faults at ``point`` have triggered so far."""
        with self._lock:
            return sum(
                self._states[index].fires
                for index in self._by_point.get(point, ())
            )

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(values, Mapping):
            raise ValueError(f"a fault plan must be a mapping, got {type(values).__name__}")
        unknown = set(values) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        faults = [FaultSpec.from_dict(spec) for spec in values.get("faults", ())]
        return cls(faults, seed=int(values.get("seed", 0)))


def load_fault_file(path: str) -> FaultPlan:
    """Parse a ``--fault-plan`` JSON file: ``{"seed": N, "faults": [...]}``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return FaultPlan.from_dict(payload)


# ---------------------------------------------------------------------------
# The process-global injector
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process's active fault plan (None to disable)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    return _ACTIVE


def fire(point: str, nbytes: int = 0) -> bool:
    """The hook every fault point calls.

    With no plan installed this is one global load and a ``None`` check —
    cheap enough for per-chunk call sites (see
    ``benchmarks/test_bench_resilience_overhead.py``).
    """
    plan = _ACTIVE
    if plan is None:
        return False
    return plan.fire(point, nbytes)


def install_from_environ(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """Install the plan serialized in ``PASH_FAULTS``, if any.

    Called by ``pash-worker`` at startup so chaos tests can reach fault
    points inside separately exec'd cluster workers.
    """
    payload = (environ if environ is not None else os.environ).get(ENV_FAULTS)
    if not payload:
        return None
    plan = FaultPlan.from_dict(json.loads(payload))
    install(plan)
    return plan
