"""In-memory streams and the virtual file system used by the executor."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, List, Optional, Set, Union

from repro.commands.base import decode_block, encode_block, iter_line_slices


def read_lines(source: Union[str, Path, BinaryIO]) -> List[str]:
    """Read a real file (by name) or an open binary stream with the stream
    model's framing: bytes, decoded by the one codec, lines end at ``\\n``.

    Every layer frames a stream this way (:func:`~repro.commands.base.decode_block`).
    ``str.splitlines`` or a text-mode read would also break on ``\\r``/``\\f``/…
    and fold ``\\r\\n``, and the interpreter, the engine and the host ``sh``
    would disagree on files containing those characters.
    """
    if isinstance(source, (str, Path)):
        return decode_block(Path(source).read_bytes())
    return decode_block(source.read())


def write_lines(target: Union[str, Path, BinaryIO], lines: Iterable[str]) -> None:
    """The mirror of :func:`read_lines`: ``lines`` through the codec into a file
    (by name) or a binary stream such as ``sys.stdout.buffer``, whatever the
    text layer's encoding; text printed before is flushed first."""
    if isinstance(target, (str, Path)):
        with open(target, "wb") as handle:
            handle.writelines(map(encode_block, iter_line_slices(lines)))
    else:
        sys.stdout.flush()
        target.writelines(map(encode_block, iter_line_slices(lines)))
        target.flush()


class VirtualFileSystem:
    """A tiny in-memory file namespace.

    The executor resolves FILE edges against this namespace so that whole
    benchmark scripts can run hermetically.  Files are stored as lists of
    lines (no trailing newlines).  When a name is missing from the namespace
    the VFS optionally falls back to the real filesystem, which lets the
    examples operate on files the user actually has on disk.

    Streams are read-only once handed over, so nothing is copied on the way
    in or out: :meth:`write` keeps the list it is given and :meth:`read`
    returns the list it holds.  The one writer that changes a list in place
    is :meth:`append`, and it does so only to a list no one else can hold
    (one it built itself and never handed out); a shared file is copied
    once, on its first append, and is the VFS's own from then on.
    """

    def __init__(
        self,
        files: Optional[Dict[str, Iterable[str]]] = None,
        allow_real_files: bool = False,
    ) -> None:
        self._files: Dict[str, List[str]] = {}
        #: Names whose list no one outside this VFS holds (appendable in place).
        self._owned: Set[str] = set()
        self.allow_real_files = allow_real_files
        for name, lines in (files or {}).items():
            self.write(name, lines)

    # ------------------------------------------------------------------

    def write(self, name: str, lines: Iterable[str]) -> None:
        """Create or overwrite a file with ``lines`` (``str`` lines, by the stream contract).

        A list is kept as it is, not copied: the caller must not change it.
        """
        self._files[name] = lines if isinstance(lines, list) else list(lines)
        self._owned.discard(name)

    def append(self, name: str, lines: Iterable[str]) -> None:
        """Append lines to a (possibly missing) file.

        With the real-filesystem fallback enabled, appending to a file that
        exists only on disk first pulls its content in — matching ``>>``
        semantics, which never truncate.
        """
        if name not in self._files and self.allow_real_files:
            path = Path(name)
            if path.exists():
                self._files[name] = read_lines(path)
                self._owned.add(name)
        if name in self._owned:
            self._files[name].extend(lines)
        else:
            self._files[name] = [*self._files.get(name, ()), *lines]
            self._owned.add(name)

    def read(self, name: str) -> List[str]:
        """Read a file's lines; falls back to disk when allowed.

        The list the VFS holds, not a copy: the caller must not change it.
        """
        if name in self._files:
            self._owned.discard(name)
            return self._files[name]
        if self.allow_real_files:
            path = Path(name)
            if path.exists():
                return read_lines(path)
        raise FileNotFoundError(f"virtual file {name!r} does not exist")

    def real_path(self, name: str) -> Optional[str]:
        """On-disk path backing ``name``, when it is not an in-memory entry.

        Lets the parallel engine *stream* large real files chunk-by-chunk in
        the worker that consumes them instead of materializing every input
        line in the parent process.  Returns None for in-memory files and
        when the real-filesystem fallback is disabled or the path is absent.
        """
        if name in self._files or not self.allow_real_files:
            return None
        path = Path(name)
        if path.is_file():
            return str(path)
        return None

    def line_count(self, name: str) -> Optional[int]:
        """Lines behind ``name`` without reading it through, or None if unknown.

        Exact for an in-memory file; for a real file, its size divided by
        the line length sampled from its first 64 KiB (the region planner
        sizes a region from this before anything runs).
        """
        if name in self._files:
            return len(self._files[name])
        path = self.real_path(name)
        if path is None:
            return None
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                sample = handle.read(64 * 1024)
        except OSError:
            return None
        if not sample:
            return 0
        return max(1, round(size * sample.count(b"\n") / len(sample)))

    def exists(self, name: str) -> bool:
        if name in self._files:
            return True
        return self.allow_real_files and Path(name).exists()

    def delete(self, name: str) -> None:
        self._files.pop(name, None)
        self._owned.discard(name)

    def names(self) -> List[str]:
        return sorted(self._files)

    def glob(self, pattern: str) -> List[str]:
        """Names matching a glob pattern, for pathname expansion.

        In-memory names are matched with the shared POSIX pattern rule
        (:func:`repro.shell.expansion.pattern_matches`: case-sensitive,
        names starting with ``.`` require an explicit leading dot); with the
        real-filesystem fallback enabled, on-disk matches are merged in so
        CLI runs can loop over real files.
        """
        from repro.shell.expansion import pattern_matches

        matches = {name for name in self._files if pattern_matches(name, pattern)}
        if self.allow_real_files:
            import glob as _glob

            matches.update(
                path for path in _glob.glob(pattern) if Path(path).is_file()
            )
        return sorted(matches)

    def total_lines(self) -> int:
        """Total number of lines stored (used by workload accounting)."""
        return sum(len(lines) for lines in self._files.values())

    def copy(self) -> "VirtualFileSystem":
        """An independent namespace sharing the (read-only) file lists."""
        self._owned.clear()  # both sides now hold every list
        return VirtualFileSystem(self._files, allow_real_files=self.allow_real_files)

    def __contains__(self, name: str) -> bool:
        return self.exists(name)

    def __len__(self) -> int:
        return len(self._files)
