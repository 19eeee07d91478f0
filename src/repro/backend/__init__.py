"""PaSh's back-end: DFG → parallel shell script (§5.2).

:mod:`repro.backend.shell_emitter` instantiates a dataflow graph as POSIX
shell text — named pipes, background jobs, and the cleanup logic that keeps
early-exiting consumers (``head``) from deadlocking their producers.  The
whole compilation (find regions, optimize their DFGs, splice the emitted
parallel fragments back into the surrounding script) is driven by
:class:`repro.api.Pash`.
"""

from repro.backend.shell_emitter import emit_parallel_script

__all__ = ["emit_parallel_script"]
