#!/usr/bin/env python3
"""Validate a Chrome ``trace_event`` JSON file produced by ``repro.obs``.

Checks, in order:

1. the file is JSON with a ``traceEvents`` list (or is itself that list);
2. every ``"ph": "X"`` event carries a name, integer ``pid``/``tid``,
   non-negative ``ts``/``dur``, and an ``args.span_id``;
3. span ids are unique;
4. parent containment: an event whose ``args.parent_id`` names another event
   in the file must sit inside its parent's ``[ts, ts + dur]`` window, up to
   a small epsilon (spans ship wall-clock starts from different processes,
   so scheduling jitter of a few milliseconds is tolerated);
5. per-``(pid, tid)`` stack discipline: events on one track either nest or
   are disjoint — partial overlap beyond the epsilon is a recording bug;
6. a ``scheduler:`` span is one of the engine's named phases
   (:data:`SCHEDULER_PHASES`, the serial tail's ``gather`` and ``deliver``
   included) and sits under ``engine:run`` when that span is in the file;
7. a ``node:`` span in the pid of an ``engine:run`` span — the lane the
   coordinator evaluates itself, recorded like a worker's — sits directly
   under that ``engine:run``, beside its scheduler phases, not inside one;
8. at least one ``X`` event exists (an empty trace is a broken pipeline).

Usable as a CLI (``python tools/check_trace.py out.json``; exit 0 = valid)
and as a module (``from check_trace import check_trace``), which the test
suite and CI both do.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

#: Containment/overlap slack in microseconds.  Parent/child timestamps are
#: wall-clock samples taken in different processes; durations are monotonic.
#: A few milliseconds of skew is expected; structural bugs are way larger.
EPSILON_US = 5_000

#: The parallel scheduler's phases, in run order: each is a child of ``engine:run``.
SCHEDULER_PHASES = (
    "scheduler:spawn", "scheduler:plan", "scheduler:dispatch",
    "scheduler:collect", "scheduler:gather", "scheduler:deliver",
)


class TraceError(ValueError):
    """The trace file is structurally invalid; ``str()`` says why."""


def _events_of(document: Any) -> List[Dict[str, Any]]:
    if isinstance(document, list):
        return document
    if isinstance(document, dict) and isinstance(document.get("traceEvents"), list):
        return document["traceEvents"]
    raise TraceError("not a Chrome trace: expected a traceEvents list")


def _check_event(event: Dict[str, Any], index: int) -> None:
    where = f"event #{index}"
    if not isinstance(event.get("name"), str) or not event["name"]:
        raise TraceError(f"{where}: missing or empty name")
    for key in ("pid", "tid"):
        if not isinstance(event.get(key), int):
            raise TraceError(f"{where} ({event['name']}): {key} must be an integer")
    if event["pid"] <= 0:
        raise TraceError(f"{where} ({event['name']}): pid must be positive")
    for key in ("ts", "dur"):
        value = event.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            raise TraceError(f"{where} ({event['name']}): {key} must be >= 0")
    args = event.get("args")
    if not isinstance(args, dict) or not args.get("span_id"):
        raise TraceError(f"{where} ({event['name']}): args.span_id is required")


def _check_containment(spans: Dict[str, Dict[str, Any]]) -> None:
    for span_id, event in spans.items():
        parent_id = event["args"].get("parent_id")
        if parent_id is None or parent_id not in spans:
            continue  # roots, and parents outside the exported window
        parent = spans[parent_id]
        start, end = event["ts"], event["ts"] + event["dur"]
        parent_start = parent["ts"] - EPSILON_US
        parent_end = parent["ts"] + parent["dur"] + EPSILON_US
        if start < parent_start or end > parent_end:
            raise TraceError(
                f"span {span_id} ({event['name']}) [{start}, {end}] escapes its "
                f"parent {parent_id} ({parent['name']}) "
                f"[{parent['ts']}, {parent['ts'] + parent['dur']}]"
            )


def _check_scheduler_phases(spans: Dict[str, Dict[str, Any]]) -> None:
    for span_id, event in spans.items():
        if not event["name"].startswith("scheduler:"):
            continue
        if event["name"] not in SCHEDULER_PHASES:
            raise TraceError(f"span {span_id}: unknown scheduler phase {event['name']!r}")
        parent = spans.get(event["args"].get("parent_id"))
        if parent is not None and parent["name"] != "engine:run":
            raise TraceError(
                f"span {span_id} ({event['name']}) is under {parent['name']}, not engine:run"
            )


def _check_coordinator_lanes(spans: Dict[str, Dict[str, Any]]) -> None:
    runs = {
        (event["pid"], event["tid"]) for event in spans.values() if event["name"] == "engine:run"
    }
    phases = [event for event in spans.values() if event["name"] in SCHEDULER_PHASES]
    for span_id, event in spans.items():
        if not event["name"].startswith("node:") or (event["pid"], event["tid"]) not in runs:
            continue
        parent = spans.get(event["args"].get("parent_id"))
        if parent is None or parent["name"] != "engine:run" or parent["pid"] != event["pid"]:
            raise TraceError(
                f"span {span_id} ({event['name']}) runs in the coordinator but is not "
                "under its engine:run"
            )
        start, end = event["ts"], event["ts"] + event["dur"]
        for phase in phases:
            if (
                phase["args"].get("parent_id") == parent["args"]["span_id"]
                and phase["ts"] < start and end < phase["ts"] + phase["dur"]
            ):
                raise TraceError(
                    f"span {span_id} ({event['name']}) lies inside {phase['name']}: the "
                    "coordinator's lane runs between dispatch and collection"
                )


def _check_stack_discipline(events: List[Dict[str, Any]]) -> None:
    """Events on one (pid, tid) track must nest or be disjoint."""
    tracks: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for event in events:
        tracks.setdefault((event["pid"], event["tid"]), []).append(event)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda event: (event["ts"], -event["dur"]))
        stack: List[Tuple[float, str]] = []  # (end, name)
        for event in track:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1][0] <= start + EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][0] + EPSILON_US:
                raise TraceError(
                    f"track pid={pid} tid={tid}: span {event['name']} "
                    f"[{start}, {end}] partially overlaps enclosing "
                    f"{stack[-1][1]} (ends {stack[-1][0]})"
                )
            stack.append((end, event["name"]))


def check_trace(document: Any) -> int:
    """Validate a loaded trace document (or events list); returns the number
    of ``X`` events.  Raises :class:`TraceError` on any violation."""
    events = _events_of(document)
    complete = [event for event in events if event.get("ph") == "X"]
    if not complete:
        raise TraceError("trace contains no complete ('ph': 'X') events")
    spans: Dict[str, Dict[str, Any]] = {}
    for index, event in enumerate(complete):
        _check_event(event, index)
        span_id = event["args"]["span_id"]
        if span_id in spans:
            raise TraceError(f"duplicate span_id {span_id}")
        spans[span_id] = event
    _check_containment(spans)
    _check_stack_discipline(complete)
    _check_scheduler_phases(spans)
    _check_coordinator_lanes(spans)
    return len(complete)


def check_trace_file(path: str) -> int:
    """Load ``path`` and validate it; returns the number of ``X`` events."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: not valid JSON ({exc})") from exc
    return check_trace(document)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: check_trace.py TRACE.json", file=sys.stderr)
        return 2
    try:
        count = check_trace_file(argv[1])
    except TraceError as exc:
        print(f"check_trace: INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"check_trace: OK ({count} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
