"""Frozen calibration kernel: seconds of a fixed CPU job at the host's present speed.

Host speed on a small shared VM drifts by tens of percent over minutes, which
is more than any bound the benchmark could enforce.  Every timed sample is
therefore bracketed by one run of this kernel before and one after, and
reported as ``raw * CALIB_NOMINAL_S / mean(before, after)``: seconds at
nominal host speed.

The kernel imports nothing from ``repro`` and must never change: editing it
(or ``CALIB_NOMINAL_S``) moves every timing metric of every workload at once.
Its mix mirrors what the program's data plane does to text (case mapping,
sorting, join+encode, decode+split, substring scan) so that it slows down the
way the program does when the host does.
"""

import gc
import time

#: Kernel seconds on the box the benchmark was sized on (2 vCPUs); only the
#: ratio to it matters, so it never needs re-measuring.
CALIB_NOMINAL_S = 0.080

_WORDS = (
    "the of and a to in is you that it he was for on are as with his they I "
    "Unix shell Pipeline stream process Signal kernel buffer socket thread "
    "parallel Data graph node edge merge split relay eager lazy lights dark"
).split()


def _fixed_lines(count):
    """A deterministic line list built without ``random`` (an LCG), so the
    kernel's work is identical on every Python build.  Bodies come from a small
    pool so that importing this module stays cheap: it is part of every
    set-up the benchmark times."""
    state = 12345
    bodies = []
    for _ in range(4096):
        words = []
        for _ in range(8):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            words.append(_WORDS[(state >> 8) % len(_WORDS)])
        bodies.append(" ".join(words))
    return ["%s %x" % (bodies[(index * 40503) % 4096], (index * 2654435761) & 0xFFFFFF) for index in range(count)]


_LINES = _fixed_lines(80_000)


def kernel_seconds():
    """Run the fixed job once; returns its wall-clock seconds.

    The collector is paused so the result does not depend on how large the
    calling process's heap happens to be.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        lowered = [line.lower() for line in _LINES]
        lowered.sort()
        payload = "\n".join(lowered).encode("utf-8")
        decoded = payload.decode("utf-8").split("\n")
        kept = [line for line in decoded if "lights" not in line]
        fields = [" ".join(line.split(" ")[:4]) for line in kept]
        elapsed = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    if len(fields) > len(_LINES) or not payload:
        raise AssertionError("calibration kernel lost lines")
    return elapsed
