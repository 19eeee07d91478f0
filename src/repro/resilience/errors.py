"""The typed capacity error of the spill write site.

PaSh's data plane spills to disk in one place, the engine's
:class:`~repro.engine.channels.SpillBuffer`: eager pumps, blocking relays,
a worker's graph outputs, cluster edges on both sides of the socket and
:class:`~repro.runtime.eager.EagerBuffer` all append to one.  Its write
surfaces ``ENOSPC`` (a real one, or one injected at the ``spill:write``
fault point) not as a bare ``OSError`` traceback deep inside a worker
process but as :class:`ResourceExhausted`, which names the operation, the
path, and the byte count — and which the supervision layer treats as
retryable, because the sequential interpreter (which holds its
intermediates in memory) can still complete a run that cannot spill.
"""

from __future__ import annotations

import errno as _errno
from typing import Optional

#: Errnos that mean "the machine ran out of a finite resource" — disk
#: space, quota, or file descriptors — as opposed to a plain I/O failure.
#: Only these are classified into :class:`ResourceExhausted`; anything else
#: (EIO, EPERM, ...) keeps its original type and is not retried.
RESOURCE_ERRNOS = frozenset(
    code
    for code in (
        getattr(_errno, "ENOSPC", None),
        getattr(_errno, "EDQUOT", None),
        getattr(_errno, "EMFILE", None),
        getattr(_errno, "ENFILE", None),
    )
    if code is not None
)


class ResourceExhausted(OSError):
    """A spill or buffer write hit a capacity limit (ENOSPC/EMFILE/...)."""

    def __init__(
        self,
        operation: str,
        path: Optional[str],
        byte_count: int,
        errno_value: int,
        detail: str = "",
    ) -> None:
        self.operation = operation
        self.path = path
        self.byte_count = byte_count
        name = _errno.errorcode.get(errno_value, str(errno_value))
        where = f" to {path}" if path else ""
        message = (
            f"{operation}{where} ({byte_count} bytes) exhausted a resource"
            f" [{name}]" + (f": {detail}" if detail else "")
        )
        super().__init__(errno_value, message)

    def __reduce__(self):
        # OSError's default reduce would replay ``args`` into our custom
        # __init__ with the wrong arity; rebuild from the typed fields so
        # the error survives a multiprocessing boundary intact.
        return (
            ResourceExhausted,
            (self.operation, self.path, self.byte_count, self.errno),
        )

    def __str__(self) -> str:
        return self.args[1] if len(self.args) > 1 else super().__str__()


def wrap_capacity_error(
    exc: OSError, operation: str, path: Optional[str], byte_count: int
) -> OSError:
    """Classify a write failure: the typed error for capacity errnos.

    Usage at a spill site::

        try:
            self._file.write(chunk)
        except OSError as exc:
            raise wrap_capacity_error(exc, "spill:write", path, len(chunk)) from exc

    Non-capacity errors come back unchanged, so the ``raise`` re-raises the
    original exception (chained to itself, which Python elides).
    """
    if isinstance(exc, ResourceExhausted):
        return exc
    if exc.errno in RESOURCE_ERRNOS:
        return ResourceExhausted(
            operation, path, byte_count, exc.errno, detail=exc.strerror or ""
        )
    return exc
