"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``).

Tiny inputs, one round per arm: it checks the plumbing, not the numbers —
that every metric ``BENCHMARK.json`` names is printed exactly once per
workload with its unit, that no operation failed against the host references,
and that the traced run's spans are a well-formed trace.

There is deliberately no ``conftest.py`` in this directory: the sibling
benches do ``from conftest import print_header``, and a second module of that
name would shadow theirs under pytest's default import mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def test_smoke_prints_every_metric_and_writes_valid_traces():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    printed = {}
    for line in completed.stdout.splitlines():
        if line.startswith("METRIC "):
            _, workload, name, value, unit = line.split()
            float(value)
            printed.setdefault((workload, name), []).append(unit)
        elif line.startswith("# ") and " ops attempted, " in line:
            assert " 0 failed;" in line, line
    workloads = [entry["name"] for entry in contract["workloads"]]
    assert len(workloads) == 4
    for workload in workloads:
        for entry in contract["end_to_end"] + contract["per_layer"]:
            assert printed.get((workload, entry["name"])) == [entry["unit"]], (workload, entry["name"])
    assert len(printed) == len(workloads) * (len(contract["end_to_end"]) + len(contract["per_layer"]))

    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    sys.path.insert(0, os.path.join(REPO, "tools"))
    try:
        from check_trace import check_trace
    finally:
        sys.path.pop(0)
    for workload in workloads:
        with open(os.path.join(REPO, ".bench_work", "trace-%s.json" % workload)) as handle:
            assert check_trace(json.load(handle)) > 0
