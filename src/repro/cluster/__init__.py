"""The distributed execution tier: a coordinator/worker ``cluster`` backend.

PaSh's order-aware dataflow model makes the wide fan-out stages the optimizer
creates (split -> N stateless chains -> aggregate) *location-independent*: a
stateless node evaluates one line batch at a time with no cross-batch state,
so it runs byte-identically on any host that can see its input stream.  This
package turns that property into a second execution tier above the
single-host scheduler:

* :mod:`repro.cluster.protocol` — the wire format: :mod:`repro.wire`'s JSON
  frames, each block of a cross-host edge stream in a raw frame of its own,
* :mod:`repro.cluster.worker` — the ``pash-worker`` client process: connect,
  register, receive nodes in their JSON form, execute them with the engine's
  own :func:`repro.engine.workers.execute_plan`, stream the results home,
* :mod:`repro.cluster.coordinator` — the :class:`ClusterCoordinator` that
  shards a graph across registered workers (stateless nodes remote,
  stateful/aggregation nodes local), monitors heartbeats, requeues tasks
  from lost workers, and the :class:`ClusterBackend` registered under the
  name ``"cluster"``.

The tier is fully testable without SSH: with no ``connect`` address the
coordinator spawns ``workers`` localhost ``pash-worker`` processes itself.
"""

from repro.cluster.coordinator import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterOptions,
    remote_eligible,
)

__all__ = [
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterOptions",
    "remote_eligible",
]
