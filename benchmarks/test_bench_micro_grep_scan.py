"""Micro-benchmark — grep's block scan against its line path, over hit densities.

``grep``'s bytes face finds hits in a whole line block (a ``bytes.find``
loop, or an ``re.M`` search) and slices each hit's line out; its line path
splits the block, filters the lines in C and joins them.  A scan pays per
hit, the line path per line, so the scan wins on sparse hits and loses on
dense ones.  The face samples the first 64th of a block and hands a dense
block to the line path (``textproc._SAMPLE_SHIFT``/``_DENSE_SHARE``); this
prints the three costs per 64 KB block at each share of lines holding a
hit, which is where those constants come from.  ``-w`` finds candidates
without its leading lookbehind (which would hide the literal prefix sre
searches by) and confirms each candidate's line.

A wall-clock gate, so it is not in tier-1: CI's ``bench-smoke`` job runs it.
That the sampled face and the scan-every-hit face equal the line path at
each density is ``tests/commands/test_block_kernels.py``'s
``test_grep_scan_equals_the_line_path_at_every_hit_density``.
"""

import random
import timeit

from repro.commands import textproc
from repro.commands.base import block_map_kernel

DENSITIES = (0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0)
WORDS = [word.encode() for word in "the quick brown fox jumps over lazy dog dark alpha beta gamma".split()]


def block_at(density, rng, size=1 << 16):
    """About ``size`` bytes of word lines, a ``density`` share of them ending in ``zqyx``."""
    lines, total = [], 0
    while total < size:
        line = b" ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 10)))
        line += b" zqyx" if rng.random() < density else b""
        lines.append(line)
        total += len(line) + 1
    return b"\n".join(lines) + b"\n"


def best_us(function, block):
    return min(timeit.repeat(lambda: function(block), number=10, repeat=5)) / 10 * 1e6


def test_bench_micro_grep_scan(monkeypatch):
    rng = random.Random(5)
    blocks = {density: block_at(density, rng) for density in DENSITIES}

    rows = []
    for arguments in (["zq"], ["-v", "zq"], ["q.x"], ["-v", "q.x"], ["-w", "zqyx"]):
        face = textproc.grep_block(arguments)
        line_path = block_map_kernel(textproc._grep_plan(tuple(arguments), True)[2], None, True).on_block
        for density, block in blocks.items():
            sampled = best_us(face.on_block, block)
            with monkeypatch.context() as patch:
                patch.setattr(textproc, "_DENSE_SHARE", 0)  # never dense: scan every hit
                scanned = best_us(face.on_block, block)
            rows.append((" ".join(arguments), density, best_us(line_path, block), scanned, sampled))

    print("\nMicro-benchmark — grep block scan vs line path, µs per 64 KB block")
    print(f"{'grep':<10}{'hits':>6}{'lines':>9}{'scan':>9}{'sampled':>9}")
    for arguments, density, lines, scanned, sampled in rows:
        print(f"{arguments:<10}{density:>6.2f}{lines:>9.0f}{scanned:>9.0f}{sampled:>9.0f}")
    for arguments, density, lines, scanned, sampled in rows:
        if density == 0.0:  # no hit: the scan is a few C searches, the line path a split
            assert sampled < lines, arguments
        if density == 1.0:  # a hit on every line: the sample hands the block to the line path
            assert sampled < scanned, arguments
