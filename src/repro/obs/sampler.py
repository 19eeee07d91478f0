"""``TraceSampler`` — keep tracing on forever without drowning in spans.

Per-run tracing (PR 6) records everything, which is right for one CLI
invocation and wrong for a daemon serving millions of submissions: at
sustained traffic, recording every span of every job costs memory and
export volume proportional to uptime.  The sampler makes tracing
production-viable by deciding *per job* whether its spans are recorded:

* **ratio sampling** — record a deterministic, seeded fraction of jobs
  (``trace_sample_ratio``).  Deterministic means reproducible: the same
  seed yields the same admit/skip sequence, so a test (or an incident
  replay) sees the same sampled population every time.
* **per-tenant overrides** — tenants in ``sample_tenants`` are *always*
  traced regardless of the ratio, the knob an operator flips while
  debugging one tenant's latency without paying for the other millions.

The other half of "tracing can stay on forever" is span *retention*: the
daemon's tracer can be constructed with ``max_spans`` (a ring buffer —
see :class:`~repro.obs.tracer.Tracer`), so even the sampled spans occupy
bounded memory.  Both knobs live in
:class:`~repro.api.config.ObsConfig`, which — like ``ResilienceConfig`` —
is excluded from the plan-cache digest: sampling never changes what a
compilation produces.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Iterable, Optional, Tuple

__all__ = ["TraceSampler"]


class TraceSampler:
    """Decides, per job, whether spans are recorded (see module docstring).

    Thread-safe: the daemon consults it from concurrent executor threads,
    and ``random.Random`` is not documented safe under concurrent calls, so
    draws are serialized under a lock (one lock acquisition per *job*, not
    per span — sampling is far off any hot path).
    """

    def __init__(
        self,
        ratio: float = 1.0,
        seed: int = 0,
        sample_tenants: Iterable[str] = (),
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"sample ratio must be in [0, 1], got {ratio}")
        self.ratio = ratio
        self.seed = seed
        self.sample_tenants: Tuple[str, ...] = tuple(sample_tenants)
        self._always = frozenset(self.sample_tenants)
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        #: Lifetime decision counters (surfaced in daemon stats).
        self.sampled = 0
        self.skipped = 0

    @classmethod
    def from_config(cls, obs_config: Any) -> "TraceSampler":
        """Build from an :class:`~repro.api.config.ObsConfig`."""
        return cls(obs_config.trace_sample_ratio, sample_tenants=obs_config.sample_tenants)

    def should_sample(self, tenant: Optional[str] = None) -> bool:
        """True when this job's spans should be recorded.

        The ratio draw happens (and advances the seeded sequence) only when
        the ratio is fractional — 0.0 and 1.0 short-circuit, so an
        always-on or always-off sampler costs one comparison and stays
        deterministic trivially.
        """
        if tenant is not None and tenant in self._always:
            decision = True
        elif self.ratio >= 1.0:
            decision = True
        elif self.ratio <= 0.0:
            decision = False
        else:
            with self._lock:
                decision = self._random.random() < self.ratio
        with self._lock:
            if decision:
                self.sampled += 1
            else:
                self.skipped += 1
        return decision
