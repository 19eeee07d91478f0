"""Command-line entry points for the runtime helpers.

The shell scripts produced by :mod:`repro.backend.shell_emitter` invoke this
module (``python3 -m repro.runtime.cli``) for the primitives that have no
coreutils equivalent.  Each is a thin main over the engine's data plane
(:mod:`repro.engine.channels`): bytes move as chunks, and what must be held
is held by a :class:`~repro.engine.channels.SpillBuffer` — at most its spill
threshold in memory, the rest in a spill file the buffer removes.

* ``eager`` — the eager relay: an :class:`~repro.engine.channels.EagerPump`
  drains stdin at the producer's pace while stdout is written at the
  consumer's; ``--mode blocking`` buffers stdin to EOF before the first byte
  of output (the two relays of Fig. 6/7).
* ``split`` — cut stdin into contiguous line-aligned byte ranges
  (:func:`~repro.engine.channels.file_ranges`), one per output file: in
  place over a regular file, after spooling anything else to a spill file.
* ``agg`` — run a named aggregator's node kernel
  (:func:`~repro.runtime.executor.block_kernel`) over the given partial-output
  files (FIFOs in an emitted script: read through a ``ChannelReader``, never
  seeked); ``merge_sort`` merges the bytes, the others take the ``str`` adapter.
"""

from __future__ import annotations

import argparse
import os
import signal
import stat
import sys
from typing import Iterable, List

from repro.commands import standard_registry
from repro.dfg.nodes import AggregatorNode
from repro.engine.channels import (
    ChannelReader,
    EagerPump,
    SpillBuffer,
    StoredStream,
    file_ranges,
    iter_line_blocks,
)
from repro.runtime.executor import block_kernel


def _stdin_reader() -> ChannelReader:
    # A reader closes its descriptor at EOF; ``sys.stdin`` keeps its own.
    return ChannelReader(os.dup(sys.stdin.fileno()))


def _write_chunks(chunks: Iterable[bytes]) -> None:
    """Write each chunk to stdout as it arrives (no hold-back in a buffer)."""
    out = sys.stdout.buffer
    for chunk in chunks:
        out.write(chunk)
        out.flush()


def run_eager(arguments: argparse.Namespace) -> int:
    pump = EagerPump(_stdin_reader())
    pump.start()
    if arguments.mode == "blocking":
        # The same buffer, filled to EOF before the first byte leaves.
        pump.join()
    try:
        _write_chunks(pump.iter_chunks())
    finally:
        pump.buffer.abandon()
    return 0


def run_split(arguments: argparse.Namespace) -> int:
    parts = len(arguments.outputs)
    descriptor = sys.stdin.fileno()
    # A pipe has no byte ranges until it is at rest: all of it goes to the
    # spill file (threshold 0) and that file is cut.
    buffer, spool = SpillBuffer(spill_threshold=0), StoredStream()
    try:
        if stat.S_ISREG(os.fstat(descriptor).st_mode) and os.lseek(descriptor, 0, os.SEEK_CUR) == 0:
            ranges = file_ranges(f"/dev/fd/{descriptor}", parts)
        else:
            for chunk in _stdin_reader().iter_chunks():
                buffer.append(chunk)
            spool = buffer.store()
            # An empty stream never reached the file: every part is empty.
            ranges = file_ranges(spool.path, parts) if spool.path else [spool] * parts
        for path, part in zip(arguments.outputs, ranges):
            with open(path, "wb") as handle:
                for block in part.blocks():
                    handle.write(block)
    finally:
        buffer.abandon()
        spool.unlink()
    return 0


def run_agg(arguments: argparse.Namespace) -> int:
    # Everything after a literal "--" (see main) is the original command's
    # argument vector, passed verbatim — flag values such as `head -n 100`'s
    # count must not be mistaken for input paths.  Dash-prefixed tokens mixed
    # into the inputs are accepted as flags too, for hand-written invocations.
    paths = [token for token in arguments.inputs if not token.startswith("-") or token == "-"]
    flags = [
        token for token in arguments.inputs if token.startswith("-") and token != "-"
    ] + list(getattr(arguments, "command_flags", []))
    # Inputs are FIFOs in an emitted script: read, never seek.
    streams = [iter_line_blocks(ChannelReader(os.open(path, os.O_RDONLY)).iter_chunks()) for path in paths]
    kernel = block_kernel(AggregatorNode(aggregator=arguments.name, command_arguments=flags), standard_registry())
    _write_chunks(kernel(streams)[0])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.runtime.cli", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    eager = subparsers.add_parser("eager", help="eager relay")
    eager.add_argument("--mode", choices=("eager", "blocking"), default="eager")
    eager.set_defaults(handler=run_eager)

    split = subparsers.add_parser("split", help="split stdin across output files")
    split.add_argument("outputs", nargs="+", help="output file paths")
    split.set_defaults(handler=run_split)

    agg = subparsers.add_parser("agg", help="apply a named aggregator")
    agg.add_argument("name", help="aggregator name (e.g. merge_uniq)")
    agg.add_argument(
        "inputs",
        nargs="+",
        help="partial-output files to merge; tokens after `--` are treated as "
        "flags of the original command",
    )
    agg.set_defaults(handler=run_agg)

    return parser


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Split at the first "--" ourselves: argparse drops the separator, which
    # would make flag values (e.g. `-n 100`) indistinguishable from paths.
    command_flags: List[str] = []
    if "--" in argv:
        separator = argv.index("--")
        argv, command_flags = argv[:separator], argv[separator + 1 :]
    parser = build_parser()
    arguments = parser.parse_args(argv)
    arguments.command_flags = command_flags
    return arguments.handler(arguments)


def _raise_broken_pipe(signum, frame) -> None:
    # A write to a closed pipe both raises and signals: never raise a second
    # time into a stack whose ``finally`` clauses are already running.
    # Hazard: the raise is asynchronous.  A `kill -PIPE` that lands while a
    # ``finally`` is running on the *normal* path (nothing in flight, so the
    # guard does not hold it back) interrupts that cleanup, and the spill file
    # it was about to remove stays — best effort, like any killed process.
    if sys.exc_info()[0] is None:
        raise BrokenPipeError


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    # Python starts with SIGPIPE ignored.  Plain SIG_DFL would do but for the
    # spill file: the emitted script's tail signals every `head`-cut relay
    # (`kill -PIPE $pash_pids`), and its FIFO directory is shared, not a
    # scratch it removes.  Taken as an exception instead, the signal unwinds
    # through the helpers' ``finally`` clauses (spill files go), and the
    # process then dies of the signal itself: no traceback, status 141.
    signal.signal(signal.SIGPIPE, _raise_broken_pipe)
    try:
        sys.exit(main())
    except BrokenPipeError:
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
