#!/usr/bin/env python3
"""Emit a parallel shell script and (if coreutils are available) run it.

Run with::

    PYTHONPATH=src:benchmarks python examples/emit_and_run.py

This example demonstrates the back-end in its intended habitat: the compiled
script uses named pipes, background jobs, ``sort -m`` aggregation, and the
runtime helpers (``python3 -m repro.runtime.cli``), and is executed by the
system's ``sh`` against real files in a temporary directory.  When no POSIX
shell or coreutils are present, it falls back to printing the script only.
"""

import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.api import Pash, PashConfig
from paper.workloads import text


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="pash_example_"))
    chunks = []
    for index in range(4):
        path = workdir / f"chunk{index}.txt"
        path.write_text("\n".join(text.text_lines(400, seed=index)) + "\n")
        chunks.append(str(path))

    script = (
        "cat " + " ".join(chunks) + f" | tr A-Z a-z | grep light | sort | uniq -c"
        f" | sort -rn > {workdir}/out.txt"
    )
    compiled = Pash.compile(script, PashConfig.paper_default(4))

    print("=== sequential script ===")
    print(script)
    print()
    print("=== emitted parallel script ===")
    print(compiled.text)

    required = ("sh", "mkfifo", "cat", "grep", "sort", "tr")
    if not all(shutil.which(tool) for tool in required):
        print("(skipping execution: missing a POSIX shell or coreutils)")
        return

    sequential = subprocess.run(["sh", "-c", script], capture_output=True, text=True)
    sequential_output = (workdir / "out.txt").read_text()

    completed = subprocess.run(["sh", "-c", compiled.text], capture_output=True, text=True)
    parallel_output = (workdir / "out.txt").read_text()

    print("=== execution under the system shell ===")
    print("sequential exit:", sequential.returncode, " parallel exit:", completed.returncode)
    print("outputs identical:", sequential_output == parallel_output)
    print("first lines of the result:")
    for line in parallel_output.splitlines()[:5]:
        print("  " + line)


if __name__ == "__main__":
    main()
