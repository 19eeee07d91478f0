"""Resilience tier: fault injection, supervised retry, degrade-to-interpreter.

The paper's safety contract — the optimized parallel plan is byte-identical
to sequential execution — makes the interpreter an always-correct fallback.
This package turns that contract into runtime robustness:

* :mod:`repro.resilience.fault` — named fault points and the seedable
  :class:`FaultPlan` injector (chaos runs that replay);
* :mod:`repro.resilience.retry` — the shared :class:`RetryPolicy`
  (exponential backoff + jitter + deadline);
* :mod:`repro.resilience.supervisor` — the retry-then-degrade ladder;
* :mod:`repro.resilience.errors` — typed :class:`ResourceExhausted` for
  capacity failures at spill sites.

Configured via ``PashConfig.resilience``; see ``docs/RESILIENCE.md``.
"""

from repro.resilience.errors import (
    RESOURCE_ERRNOS,
    ResourceExhausted,
    wrap_capacity_error,
)
from repro.resilience.fault import (
    CHANNEL_READ,
    CLUSTER_HEARTBEAT,
    ENV_FAULTS,
    FAULT_MODES,
    FAULT_POINTS,
    POOL_WORKER_EXEC,
    SERVICE_EXECUTOR,
    SPILL_WRITE,
    FaultPlan,
    FaultSpec,
    load_fault_file,
)
from repro.resilience.retry import RetryPolicy, retry_call
from repro.resilience.supervisor import Supervisor, supervise

__all__ = [
    "RESOURCE_ERRNOS",
    "ResourceExhausted",
    "wrap_capacity_error",
    "CHANNEL_READ",
    "CLUSTER_HEARTBEAT",
    "ENV_FAULTS",
    "FAULT_MODES",
    "FAULT_POINTS",
    "POOL_WORKER_EXEC",
    "SERVICE_EXECUTOR",
    "SPILL_WRITE",
    "FaultPlan",
    "FaultSpec",
    "load_fault_file",
    "RetryPolicy",
    "retry_call",
    "Supervisor",
    "supervise",
]
