"""Reproduction of "PaSh: Light-touch Data-Parallel Shell Processing"
(EuroSys 2021).

The package exposes one front door — :mod:`repro.api` — plus the subsystems
it is built from:

* :mod:`repro.api` — ``Pash.compile(source, config) -> CompiledScript``:
  the library-first compilation API (config, pass pipeline, artifact),
* :mod:`repro.shell` — POSIX shell parser / expander / unparser,
* :mod:`repro.annotations` — parallelizability classes and the annotation DSL,
* :mod:`repro.dfg` — the dataflow-graph IR and the AST→DFG front-end,
* :mod:`repro.transform` — the named optimization passes and the pass manager,
* :mod:`repro.backend` — DFG→shell back-end,
* :mod:`repro.engine` — the multiprocess execution engine and backend registry,
* :mod:`repro.runtime` — eager relays, split, aggregators, and the in-process
  executor used for correctness checking,
* :mod:`repro.commands` — pure-Python UNIX command implementations,
* :mod:`repro.simulator` — the performance model behind the evaluation,
* :mod:`repro.workloads` and :mod:`repro.evaluation` — benchmark scripts,
  synthetic datasets, and the table/figure harnesses.

Quick start::

    from repro.api import Pash, PashConfig

    compiled = Pash.compile(
        "cat a.txt b.txt | grep error | sort | uniq -c",
        PashConfig.paper_default(width=8),
    )
    print(compiled.text)                       # the parallel shell script
    result = compiled.execute(backend="parallel")

:class:`~repro.api.PashConfig` is the only configuration object on the run
path; see the "Configuration" section of ``docs/API.md``.
"""

from repro.api import CompiledScript, Pash, PashConfig
from repro.transform.pipeline import EagerMode, SplitMode

__version__ = "0.13.0"

__all__ = [
    "CompiledScript",
    "EagerMode",
    "Pash",
    "PashConfig",
    "SplitMode",
    "__version__",
]
