"""Uploads a connection has already sent, kept so a later job can name them.

A tenant's jobs often read the same input files again and again.  Protocol 6
lets a connection send each file's lines once: the client names every file
it submits by its :func:`fingerprint`, sends a file inline (``uploads``) the
first time, and from then on sends the digest alone (``refs``) until a reply
says the daemon dropped it.  The daemon keeps what a connection uploaded in
that connection's :class:`UploadStore` and nowhere else:

* **Scope** — a digest resolves only on the connection that uploaded it, so
  no tenant can probe another's data by guessing digests, and the store is
  dropped when the connection ends.
* **Bound** — each store holds at most :attr:`UploadStore.CAPACITY` of line
  data and drops its least recently used uploads past that.  The store alone
  decides what it drops, and every reply that got past :meth:`~UploadStore.resolve`
  names those digests (``dropped``), so the client never has to guess.  A
  reference the store does not hold is answered ``unknown-upload`` before
  admission.
* **Trust** — the daemon recomputes the digest of every upload it stores
  (once per content per connection) and refuses a mismatch ``bad-request``.

The stored lists are handed to every job that names them without a copy: a
job's :class:`~repro.runtime.streams.VirtualFileSystem` treats the lists it
is given as read-only.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.service.admission import ServiceError
from repro.service.protocol import ERR_BAD_REQUEST, ERR_UNKNOWN_UPLOAD

__all__ = ["UploadCounters", "UploadStore", "fingerprint"]


def fingerprint(lines: List[str]) -> Optional[Tuple[str, int]]:
    """A file's digest and size in bytes, or None when it must go inline.

    The digest names the content, never the list object (lists are
    mutable).  It is injective over lists of lines none of which holds a
    ``\\n``: such a list is fixed by its newline join and its length (the
    length tells ``[]`` from ``[""]``).  A line that holds ``\\n`` makes the
    join ambiguous, so that file has no digest.  Raises ``TypeError`` when a
    line is not a string.
    """
    joined = "\n".join(lines)
    if lines and joined.count("\n") != len(lines) - 1:
        return None
    data = joined.encode("utf-8", "surrogatepass")
    return "%d:%s" % (len(lines), hashlib.sha256(data).hexdigest()), len(data) + (1 if lines else 0)


class UploadCounters:
    """The daemon-wide ``uploads`` section of ``stats()``, in bytes.

    ``inline_bytes`` arrived as lines (``uploads`` and ``files``; an unstored
    ``files`` entry is counted by characters), ``referenced_bytes`` arrived
    as a digest the store resolved, ``misses`` are ``unknown-upload``
    answers, and ``held_bytes`` is what every open connection's store holds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.inline_bytes = 0
        self.referenced_bytes = 0
        self.misses = 0
        self.held_bytes = 0

    def add(self, inline: int = 0, referenced: int = 0, misses: int = 0, held: int = 0) -> None:
        with self._lock:
            self.inline_bytes += inline
            self.referenced_bytes += referenced
            self.misses += misses
            self.held_bytes += held

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "inline_bytes": self.inline_bytes,
                "referenced_bytes": self.referenced_bytes,
                "misses": self.misses,
                "held_bytes": self.held_bytes,
            }


class UploadStore:
    """One connection's uploads; used only by the thread serving it."""

    #: Line data one store holds at most (UTF-8 bytes, newlines included).
    CAPACITY = 64 << 20

    def __init__(self, counters: UploadCounters) -> None:
        self._counters = counters
        self._held = 0
        #: digest → (lines, size), least recently used first.
        self._entries: "OrderedDict[str, Tuple[List[str], int]]" = OrderedDict()

    def resolve(self, refs: Any, uploads: Any) -> Tuple[Dict[str, List[str]], List[str]]:
        """A SUBMIT's ``refs``/``uploads`` as job files, and the digests evicted.

        The request's references count as used and its uploads are stored;
        then the least recently used uploads go until the store is within
        :attr:`CAPACITY`.  Nothing changes unless the whole request is valid
        and every reference resolves: a refused request neither stores nor
        evicts.
        """
        refs = refs or {}
        uploads = uploads or {}
        if not isinstance(refs, dict) or not isinstance(uploads, dict):
            raise ServiceError(
                "'refs' must map names to digests and 'uploads' digests to lists of strings",
                code=ERR_BAD_REQUEST,
            )
        entries = self._entries
        stored: Dict[str, Tuple[List[str], int]] = {}
        inline = 0
        for digest, lines in uploads.items():
            if not isinstance(lines, list):
                raise ServiceError(f"upload {digest!r} is not a list of lines", code=ERR_BAD_REQUEST)
            if digest in entries:  # verified when it was stored: keep that copy
                stored[digest] = entries[digest]
            else:
                try:
                    checked = fingerprint(lines)
                except TypeError:
                    checked = None
                if checked is None or checked[0] != digest:
                    raise ServiceError(
                        f"upload {digest!r} does not match its lines", code=ERR_BAD_REQUEST
                    )
                stored[digest] = lines, checked[1]
            inline += stored[digest][1]
        files: Dict[str, List[str]] = {}
        referenced = 0
        for name, digest in refs.items():
            if not isinstance(digest, str):
                raise ServiceError(f"reference {name!r} is not a digest string", code=ERR_BAD_REQUEST)
            if digest in stored:
                files[name] = stored[digest][0]
            elif digest in entries:
                files[name], size = entries[digest]
                referenced += size
            else:
                self._counters.add(misses=1)
                raise ServiceError(
                    f"upload {digest!r} is not held on this connection; send it inline",
                    code=ERR_UNKNOWN_UPLOAD,
                )
        held = self._held
        for digest in (*refs.values(), *stored):
            if digest in entries:
                entries.move_to_end(digest)
            else:  # every reference resolved: this is one of the request's uploads
                entries[digest] = stored[digest]
                self._held += stored[digest][1]
        dropped: List[str] = []
        while self._held > self.CAPACITY:
            digest, (_, size) = entries.popitem(last=False)
            self._held -= size
            dropped.append(digest)
        self._counters.add(inline=inline, referenced=referenced, held=self._held - held)
        return files, dropped

    def close(self) -> None:
        """Release every upload (the connection ended)."""
        self._counters.add(held=-self._held)
        self._held = 0
        self._entries.clear()
