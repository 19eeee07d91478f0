"""Job records for the service daemon.

A :class:`Job` is one admitted submission, from queue to terminal state.
State transitions are guarded by a per-job lock (the connection handler, an
executor thread, and a cancelling client may race), and every terminal
transition sets ``finished`` — the event the blocking ``submit``/``result``
protocol paths wait on, always with a bounded timeout.

State machine::

    queued ──► running ──► done | failed
       │                      ▲
       └──► cancelled         │  (daemon shutdown fails still-running jobs
                              ┘   cleanly rather than abandoning waiters)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional


class JobState:
    """String constants (the wire form) of the job state machine."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class Job:
    """One admitted submission and everything the daemon knows about it."""

    job_id: int
    tenant: str
    script: str
    backend: str
    config: Any  # PashConfig
    files: Dict[str, List[str]] = field(default_factory=dict)
    stdin: List[str] = field(default_factory=list)

    state: str = JobState.QUEUED
    stdout: List[str] = field(default_factory=list)
    out_files: Dict[str, List[str]] = field(default_factory=dict)
    #: ``RunReport.to_dict()`` of the run (populated on ``done``).
    report: Optional[Dict[str, Any]] = None
    error: str = ""
    error_code: str = ""
    cancel_requested: bool = False
    elapsed_seconds: float = 0.0
    submitted_at: float = field(default_factory=time.time)
    #: Called with the job id once, after the terminal transition (the
    #: :class:`JobTable`'s retention hook).
    on_terminal: Optional[Callable[[int], None]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.finished = threading.Event()
        #: Admission slots release exactly once per job, whichever of the
        #: executor / cancel / shutdown paths gets there first.
        self._released = False

    # -- transitions ---------------------------------------------------

    def try_start(self) -> bool:
        """queued → running; False when the job was cancelled first."""
        with self._lock:
            if self.state != JobState.QUEUED:
                return False
            self.state = JobState.RUNNING
            return True

    def complete(
        self,
        stdout: List[str],
        out_files: Dict[str, List[str]],
        report: Optional[Dict[str, Any]],
        elapsed_seconds: float,
    ) -> bool:
        """running → done; False when the job already turned terminal.

        Terminal states are terminal: an executor that finishes a job the
        shutdown path already failed must not flip ``failed`` back to
        ``done`` (or double-count it in the daemon's counters).
        """
        with self._lock:
            if self.state in JobState.TERMINAL:
                return False
            # Streams are read-only once handed over: the run's own lists
            # are kept, and every payload serializes them as they are.
            self.stdout = stdout
            self.out_files = out_files
            self.report = report
            self.elapsed_seconds = elapsed_seconds
            self.state = JobState.DONE
        self._ended()
        return True

    def fail(self, message: str, code: str = "execution") -> bool:
        """→ failed; False when the job already turned terminal."""
        with self._lock:
            if self.state in JobState.TERMINAL:
                return False
            self.error = message
            self.error_code = code
            self.state = JobState.FAILED
        self._ended()
        return True

    def cancel(self) -> bool:
        """Cancel if still queued; mark the wish otherwise.

        Returns True when the job transitioned to ``cancelled`` here.  A
        *running* job cannot be interrupted mid-region (the engine owns the
        processes); ``cancel_requested`` is still recorded so clients see
        the wish in the payload.
        """
        with self._lock:
            self.cancel_requested = True
            if self.state != JobState.QUEUED:
                return False
            self.state = JobState.CANCELLED
            self.error = "cancelled before execution started"
            self.error_code = "cancelled"
        self._ended()
        return True

    def _ended(self) -> None:
        """The tail of every terminal transition: a retained job must not pin
        its uploads (the payload never sends them back)."""
        self.files, self.stdin = {}, []
        self.finished.set()
        if self.on_terminal is not None:
            self.on_terminal(self.job_id)

    def first_release(self) -> bool:
        """True exactly once per job (guards the admission release)."""
        with self._lock:
            if self._released:
                return False
            self._released = True
            return True

    # -- wire form -----------------------------------------------------

    def payload(self, include_output: bool = True) -> Dict[str, Any]:
        """The client-visible snapshot of this job."""
        with self._lock:
            snapshot: Dict[str, Any] = {
                "job_id": self.job_id,
                "tenant": self.tenant,
                "backend": self.backend,
                "state": self.state,
                "cancel_requested": self.cancel_requested,
                "elapsed_seconds": self.elapsed_seconds,
            }
            if self.error:
                snapshot["error"] = self.error
                snapshot["error_code"] = self.error_code
            if include_output and self.state == JobState.DONE:
                snapshot["stdout"] = self.stdout
                snapshot["files"] = self.out_files
                snapshot["report"] = self.report
            return snapshot


class JobTable:
    """Thread-safe id → :class:`Job` map with bounded retention.

    Finished jobs stay queryable until :data:`RETAIN` newer jobs have
    finished, so a long-lived daemon's memory does not grow with its request
    count.  Jobs still in flight are never dropped.  Jobs are dropped in the
    order they finished, in O(1) per job.
    """

    #: Finished jobs kept queryable (older ones are dropped).
    RETAIN = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[int, Job] = {}
        #: Ids of the retained terminal jobs, oldest finish first.
        self._finished: Deque[int] = deque()
        self._next_id = 1

    def create(self, **kwargs: Any) -> Job:
        with self._lock:
            job = Job(job_id=self._next_id, on_terminal=self._trim, **kwargs)
            self._next_id += 1
            self._jobs[job.job_id] = job
            return job

    def get(self, job_id: int) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def all(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def _trim(self, finished_id: int) -> None:
        with self._lock:
            self._finished.append(finished_id)
            while len(self._finished) > self.RETAIN:
                del self._jobs[self._finished.popleft()]
