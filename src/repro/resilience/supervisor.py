"""The retry-then-degrade ladder shared by all execution tiers.

One :class:`Supervisor` guards one run (a compiled script, a JIT region, a
service job).  Its ladder:

1. **attempt** — run the parallel/cluster/jit plan;
2. **retry** — on a retryable failure (``ExecutionError`` from a crashed or
   wedged worker, ``ResourceExhausted``/``OSError`` from a full disk), back
   off per the :class:`~repro.resilience.retry.RetryPolicy` and try again,
   up to ``max_retries`` times and within ``deadline_seconds``;
3. **degrade** — when retries are exhausted and degradation is enabled, run
   the caller-supplied fallback (always the sequential interpreter, whose
   byte-identity with the plan is the paper's core correctness contract).

Every rung is observable: retries emit ``resilience:retry`` spans (the span
covers the backoff sleep), degradations emit ``resilience:degrade`` spans
(covering the fallback run, so the interpreter's work nests under it), and
:func:`supervise` — the one way every tier runs a ladder — folds the two
counts into the run's ``EngineMetrics.runs_retried`` / ``degraded_runs``.

The supervisor is deliberately duck-typed on the config: anything with
``retry_policy()``, ``degrade``, and ``fault_seed`` works, which keeps this
package free of ``repro.api`` imports (``api.config`` imports us).
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional, Tuple

from repro.obs.tracer import NULL_TRACER


def _default_retryable() -> Tuple[type, ...]:
    # Imported lazily: runtime.executor pulls in half the package and the
    # supervisor must stay importable from api.config.
    from repro.runtime.executor import ExecutionError

    return (ExecutionError, OSError)


def _describe(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 200 else text[:197] + "..."


class Supervisor:
    """Runs attempts under one ResilienceConfig, accumulating counters."""

    def __init__(
        self,
        resilience: Any,
        tracer: Any = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.resilience = resilience
        self.policy = resilience.retry_policy()
        self.tracer = tracer or NULL_TRACER
        # Backoff jitter shares the fault seed so a chaos run's timing
        # decisions replay with its faults.
        self._rng = rng or random.Random(getattr(resilience, "fault_seed", 0))
        self.runs_retried = 0
        self.degraded_runs = 0

    def run(
        self,
        target: str,
        attempt: Callable[[], Any],
        degrade: Optional[Callable[[], Any]] = None,
        retryable: Optional[Any] = None,
    ) -> Any:
        """Run ``attempt`` up the ladder; the last error propagates typed.

        ``degrade`` is the interpreter fallback; pass ``None`` when the
        attempt already *is* the interpreter.  Errors raised by the fallback
        itself are terminal — there is no lower rung.
        """
        if retryable is None:
            retryable = _default_retryable()
        started = time.monotonic()
        retries = 0
        while True:
            try:
                return attempt()
            except retryable as exc:
                delay = self.policy.backoff_seconds(retries, self._rng)
                elapsed = time.monotonic() - started
                if self.policy.allows_retry(retries, elapsed + delay):
                    retries += 1
                    self.runs_retried += 1
                    with self.tracer.span(
                        "resilience:retry",
                        "resilience",
                        target=target,
                        attempt=retries,
                        delay_seconds=round(delay, 4),
                        error=_describe(exc),
                    ):
                        time.sleep(delay)
                    continue
                if degrade is not None and self.resilience.degrade:
                    self.degraded_runs += 1
                    with self.tracer.span(
                        "resilience:degrade",
                        "resilience",
                        target=target,
                        retries=retries,
                        error=_describe(exc),
                    ):
                        return degrade()
                raise


def supervise(
    resilience: Any,
    tracer: Any,
    target: str,
    attempt: Callable[[], Any],
    degrade: Optional[Callable[[], Any]] = None,
    metrics_of: Callable[[Any], Any] = lambda result: result.metrics,
) -> Any:
    """Run one ladder and count it once, in the run's own ``EngineMetrics``.

    Returns what the ladder returned.  ``metrics_of`` maps that to the
    ``EngineMetrics`` the run reports (by default the result's own); a
    ladder that raises folds nothing, because no run reports it.
    """
    supervisor = Supervisor(resilience, tracer)
    result = supervisor.run(target, attempt, degrade)
    metrics = metrics_of(result)
    metrics.runs_retried += supervisor.runs_retried
    metrics.degraded_runs += supervisor.degraded_runs
    return result
