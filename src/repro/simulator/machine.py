"""The machine model: cores, spawn overhead, and I/O characteristics."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the box's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _at_rate(lines: int, lines_per_second: float) -> float:
    """Seconds for ``lines`` at a rate; a rate of 0 means the step is free."""
    return lines / lines_per_second if lines_per_second > 0 else 0.0


@dataclass
class MachineModel:
    """Parameters of the simulated execution platform.

    Defaults approximate the paper's testbed: 64 physical cores, pipes with a
    64 KiB kernel buffer (expressed in lines), a fraction of a millisecond to
    fork/exec a process, and roughly one second of constant PaSh setup
    (compilation is measured separately; this models fifo creation, spawning
    the wrapper shell, and teardown).
    """

    cores: int = 64
    #: Seconds to spawn one extra process (fork/exec + wiring its FIFOs).
    process_spawn_seconds: float = 0.002
    #: Constant per-execution overhead of the PaSh-generated script.
    setup_seconds: float = 0.9
    #: Constant startup of the sequential script (shell + first exec).
    sequential_setup_seconds: float = 0.05
    #: Lines that fit in a kernel pipe buffer (64 KiB at ~80 bytes/line).
    pipe_buffer_lines: int = 800
    #: Sequential read throughput of the storage backing input files
    #: (lines/second; ~1 GB/s at ~80 bytes per line).
    disk_lines_per_second: float = 12_500_000.0
    #: Aggregate read throughput when many processes stream from disk at once.
    disk_parallel_scaling: float = 4.0
    #: Lines per second one inter-process edge carries, producer's encode
    #: plus consumer's decode.  0 = free: the paper's runtime joins real
    #: binaries by kernel pipes, so the figures never charge for it.
    channel_lines_per_second: float = 0.0
    #: Lines per second the driver ships an in-memory input to a pool worker
    #: at (pickled into the worker's plan, before the run starts); 0 = free.
    feed_lines_per_second: float = 0.0
    #: Lines per second the driver decodes a collected graph output at, once
    #: the run is over and one output after the other; 0 = free.
    collect_lines_per_second: float = 0.0
    #: Whether a non-blocking relay is a process of its own (the paper's
    #: ``eager`` binary) or bridged out of the plan (our scheduler).
    relays_are_processes: bool = True
    #: Lines the in-process executor may hold at once, summed over a
    #: region's edges (it keeps every edge's list until the region ends,
    #: where the pool streams in bounded memory); 0 = no limit.
    in_process_lines: int = 0

    def disk_seconds(self, lines: int, readers: int = 1) -> float:
        """Time to pull ``lines`` from storage with ``readers`` concurrent readers."""
        effective = self.disk_lines_per_second * min(
            float(max(readers, 1)), self.disk_parallel_scaling
        )
        return lines / effective

    def channel_seconds(self, lines: int) -> float:
        """CPU time to move ``lines`` across one inter-process edge."""
        return _at_rate(lines, self.channel_lines_per_second)

    def feed_seconds(self, lines: int) -> float:
        """Time to hand ``lines`` the driver holds in memory to pool workers."""
        return _at_rate(lines, self.feed_lines_per_second)

    def collect_seconds(self, lines: int) -> float:
        """Time the driver spends decoding ``lines`` of collected graph output."""
        return _at_rate(lines, self.collect_lines_per_second)

    def spawn_seconds(self, processes: int) -> float:
        """Total time spent creating ``processes`` (spawns are serialized)."""
        return self.process_spawn_seconds * max(processes, 0)

    @classmethod
    def paper_testbed(cls) -> "MachineModel":
        """The default 64-core configuration used throughout the evaluation."""
        return cls()

    @classmethod
    def this_host(cls) -> "MachineModel":
        """This machine running *our* engine on its warm worker pool.

        The constants are this engine's, not the paper's, and
        ``tools/calibrate_costs.py`` re-measures them: the per-run second
        and the channel and collection rates are probed (disk and feed rates
        were measured once, by hand).  The per-node second is *fitted*: it
        stands for all a pool node costs beyond its kernel and its crossings,
        the probe (dispatch and report on 4-line graphs) is only its floor,
        and the tool prints the values under which the planner's picks for
        width-2 ``wf``, ``grep | cut`` and ``sort`` over 1k-100k on-disk
        lines have the least regret.  This box runs a pool in two moods —
        two workers get two cores, or between them about one — and 1.9 ms
        is the choice whose worst pick over both is mildest (docs/JIT.md).
        """
        return cls(
            cores=usable_cores(),
            process_spawn_seconds=0.0019,
            setup_seconds=0.0005,
            sequential_setup_seconds=0.00005,
            disk_lines_per_second=20_000_000.0,
            disk_parallel_scaling=1.0,
            channel_lines_per_second=4_800_000.0,
            feed_lines_per_second=2_400_000.0,
            collect_lines_per_second=9_000_000.0,
            relays_are_processes=False,
            in_process_lines=8_000_000,  # roughly 1 GB of Python str objects
        )

    def in_process(self) -> "MachineModel":
        """The same host evaluating a graph on the in-process executor.

        One thread runs the nodes one after another over Python lists: no
        worker is dispatched, no stage overlaps another (the makespan is the
        sum of the nodes' work), and an edge costs one list copy, not an
        encode and a decode.
        """
        return replace(
            self,
            cores=1,
            process_spawn_seconds=0.00001,
            channel_lines_per_second=25_000_000.0,
            collect_lines_per_second=0.0,  # its outputs already are lists
        )

    @classmethod
    def laptop(cls) -> "MachineModel":
        """A small configuration used in tests to exercise core limits."""
        return cls(cores=4, setup_seconds=0.3)
