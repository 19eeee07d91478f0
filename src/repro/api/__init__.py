"""``repro.api`` — the library-first front door of the PaSh reproduction.

One config, one compile call, one inspectable artifact::

    from repro.api import Pash, PashConfig

    compiled = Pash.compile(
        "cat logs0.txt logs1.txt | grep error | sort | uniq -c",
        PashConfig.paper_default(width=8),
    )
    print(compiled.text)                      # the parallel shell script
    result = compiled.execute(backend="parallel")
    print(result.stdout)

The pieces, and where they live:

* :class:`PashConfig` (:mod:`repro.api.config`) — one frozen object carrying
  every knob: optimizer width/eager/split/fan-in, pass toggling, backend
  selection, engine streaming knobs, and emission settings; the passes, the
  JIT driver and the parallel scheduler read it directly.  Round-trips
  through ``to_dict``/``from_dict`` so caching layers can key on it.
* :class:`Pash` / :func:`compile` (:mod:`repro.api.pash`) — parse + region
  discovery, then the named pass pipeline per region
  (``split-insertion → parallelize → aggregation-lowering → eager-relays →
  fuse-stages``,
  see :mod:`repro.transform.passes`), then emission.
* :class:`CompiledScript` (:mod:`repro.api.artifact`) — the artifact: AST,
  regions, per-region DFGs and per-pass reports, ``.emit()`` for shell text,
  ``.execute()`` for any engine backend.
* :func:`run` — script-in, result-out execution (the harness's measuring
  entry point); :func:`optimize` — the pass pipeline over one graph.
"""

from repro.api.artifact import CompilationStats, CompiledScript
from repro.api.config import (
    ClusterOptions,
    ObsConfig,
    PashConfig,
    ResilienceConfig,
    StreamingConfig,
)
from repro.api.pash import Pash, compile, optimize, run
from repro.transform.pipeline import EagerMode, SplitMode

__all__ = [
    "ClusterOptions",
    "CompilationStats",
    "CompiledScript",
    "EagerMode",
    "ObsConfig",
    "Pash",
    "PashConfig",
    "ResilienceConfig",
    "SplitMode",
    "StreamingConfig",
    "compile",
    "optimize",
    "run",
]
