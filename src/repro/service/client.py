"""``ServiceClient`` / ``pash-client`` — talk to a running ``pash-serve``.

The Python API is a thin typed wrapper over the keep-alive request
protocol: every method is one send/recv round trip on the calling thread's
connection, raises :class:`~repro.service.admission.ServiceBusy` on admission
rejections and :class:`~repro.service.admission.ServiceError` on everything
else, and never blocks past its timeout.  The CLI (``pash-client
submit | status | result | cancel | stats | metrics | ping | shutdown``) maps
those calls onto exit codes: 0 success, 1 job failed, 2 unreachable/usage, 3
rejected busy.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Set

from repro.resilience.retry import RetryPolicy, retry_call
from repro.runtime.streams import read_lines, write_lines
from repro.service import protocol, uploads
from repro.service.admission import ServiceBusy, ServiceError
from repro.service.protocol import Address


class _Connection:
    """One thread's socket to the daemon; closed when dropped or closed."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.last_used = time.monotonic()
        self.close = weakref.finalize(self, sock.close)
        #: Whether a reply here named what the daemon dropped (it speaks
        #: protocol 6); until then files travel as plain ``files``.
        self.stores_uploads = False
        #: The digests the daemon holds for this connection.
        self.held: Set[str] = set()

    def submit(
        self, message: Dict[str, Any], files: Dict[str, List[str]], wait: float
    ) -> Dict[str, Any]:
        """Send a SUBMIT carrying ``files``; what it uploaded is held from
        then on, until a reply names it under ``dropped``."""
        sent = self._attach(message, files)
        response = protocol.exchange(self.sock, sent, wait)
        dropped = response.get("dropped")
        if isinstance(dropped, list):  # past resolution: stored, then evicted
            self.stores_uploads = True
            self.held.update(sent.get("uploads", ()))
            self.held.difference_update(dropped)
        return response

    def _attach(self, message: Dict[str, Any], files: Dict[str, List[str]]) -> Dict[str, Any]:
        """``message`` naming every file it can by digest: a reference when
        the daemon holds it, an upload under its digest otherwise, and the
        lines alone (``files``) when they have no digest or the daemon has
        not shown it stores uploads."""
        if not self.stores_uploads:
            return dict(message, files=files)
        inline: Dict[str, List[str]] = {}
        sent_uploads: Dict[str, List[str]] = {}
        refs: Dict[str, str] = {}
        for name, lines in files.items():
            try:
                checked = uploads.fingerprint(lines) if isinstance(lines, list) else None
            except TypeError:  # not lines: the daemon answers bad-request
                checked = None
            if checked is None:
                inline[name] = lines
                continue
            digest = refs[name] = checked[0]
            if digest not in self.held:
                sent_uploads[digest] = lines
        sent = dict(message, refs=refs)
        if sent_uploads:
            sent["uploads"] = sent_uploads
        if inline:
            sent["files"] = inline
        return sent

    def daemon_closed(self) -> bool:
        """Whether the daemon closed its end (idle timeout, restart): it never
        speaks first, so anything to read before a request is its EOF."""
        try:
            self.sock.settimeout(0.0)
            self.sock.recv(1, socket.MSG_PEEK)
        except BlockingIOError:
            return False
        except OSError:
            pass
        return True


class ServiceClient:
    """A handle on one daemon address: one keep-alive connection per thread.

    A connection is reused while it has been idle for less than half the
    daemon's :data:`~repro.service.protocol.IDLE_TIMEOUT_SECONDS`; past that,
    or when the daemon has closed it, the next call reconnects before it
    sends anything.  ``close()`` (or leaving a ``with`` block) closes every
    thread's connection; a client dropped without it closes them as it is
    collected.
    """

    def __init__(
        self,
        address: Address,
        timeout: float = 30.0,
        retry_seconds: float = 0.0,
    ) -> None:
        self.address = address
        self.timeout = timeout
        #: Retry window for *unreachable* daemons (connection refused while
        #: pash-serve is still starting) — the same idiom as pash-worker's
        #: ``--retry-seconds``.  Only the ``unreachable`` code is retried:
        #: protocol.connect reserves it for failures of the TCP connect
        #: itself, so a retried request provably never reached the daemon
        #: (a retried SUBMIT is not idempotent).  ``connection-lost`` and
        #: admission rejections are never retried.
        self.retry_seconds = retry_seconds
        self._local = threading.local()
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    def close(self) -> None:
        """Close every thread's connection (the next call reconnects)."""
        for connection in list(self._connections):
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _connection(self, timeout: float) -> _Connection:
        """This thread's connection, reconnecting when it cannot be reused."""
        connection: Optional[_Connection] = getattr(self._local, "connection", None)
        if connection is not None and (
            not connection.close.alive
            or time.monotonic() - connection.last_used
            >= protocol.IDLE_TIMEOUT_SECONDS / 2
            or connection.daemon_closed()
        ):
            connection.close()
            connection = None
        if connection is None:
            connection = _Connection(protocol.connect(self.address, timeout))
            self._local.connection = connection
            self._connections.add(connection)
        return connection

    def _request(
        self,
        message: Dict[str, Any],
        timeout: Optional[float] = None,
        files: Optional[Dict[str, List[str]]] = None,
    ) -> Dict[str, Any]:
        def once() -> Dict[str, Any]:
            wait = timeout or self.timeout
            connection = self._connection(wait)
            try:
                if files:
                    response = connection.submit(message, files, wait)
                else:
                    response = protocol.exchange(connection.sock, message, wait)
            except ServiceError:
                connection.close()  # the stream is out of step: never reuse it
                raise
            connection.last_used = time.monotonic()
            return protocol.raise_for_error(response)

        if self.retry_seconds <= 0:
            return once()
        # Exponential backoff + jitter via the shared RetryPolicy: many
        # clients waiting out one daemon restart spread their reconnects
        # instead of hammering every 200 ms in lockstep.  Only the
        # pre-send ``unreachable`` failures are retried (see __init__).
        policy = RetryPolicy(
            max_retries=None,
            base_seconds=0.1,
            max_seconds=2.0,
            deadline_seconds=self.retry_seconds,
        )
        return retry_call(
            once,
            policy,
            retryable=lambda error: (
                isinstance(error, ServiceError)
                and error.code == protocol.ERR_UNREACHABLE
            ),
        )

    # ------------------------------------------------------------------

    def submit(
        self,
        script: str,
        tenant: str = "default",
        files: Optional[Dict[str, List[str]]] = None,
        stdin: Optional[List[str]] = None,
        backend: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a script; returns the job payload.

        With ``wait=True`` (default) the payload is terminal — ``state`` is
        ``done``/``failed``/``cancelled`` and carries ``stdout``/``files``/
        ``report`` on success.  With ``wait=False`` it is the queued
        snapshot; poll with :meth:`result`.

        A file whose content this thread's connection already uploaded
        travels as its digest (protocol 6) until the daemon says it dropped
        it: ``files`` are digested on every call, so a list changed in place
        is new content.  The first submit on a connection, and every submit
        to a daemon older than protocol 6, sends the lines.
        """
        message: Dict[str, Any] = {
            "type": protocol.MSG_SUBMIT,
            "script": script,
            "tenant": tenant,
            "wait": wait,
        }
        if stdin:
            message["stdin"] = stdin
        if backend:
            message["backend"] = backend
        if config:
            message["config"] = config
        # The server must never wait longer than the client socket stays
        # open: with no explicit timeout the daemon would block up to its
        # own max_wait_seconds while the socket died much earlier, turning
        # a slow job into a bogus connection error.  Always send the
        # effective wait so both sides agree, and keep the socket open
        # 15s past it so a timely server answer (including the typed
        # timeout error) always gets through.
        if wait:
            effective = self.timeout if timeout is None else timeout
            message["timeout"] = effective
            socket_timeout = effective + 15.0
        else:
            socket_timeout = self.timeout
        return self._request(message, timeout=socket_timeout, files=files)["job"]

    def status(self, job_id: int) -> Dict[str, Any]:
        """The job's current snapshot (non-blocking)."""
        return self._request({"type": protocol.MSG_STATUS, "job_id": job_id})["job"]

    def result(self, job_id: int, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block (bounded) until the job is terminal; its final payload."""
        message: Dict[str, Any] = {"type": protocol.MSG_RESULT, "job_id": job_id}
        # Same server/socket agreement as submit(wait=True).
        effective = self.timeout if timeout is None else timeout
        message["timeout"] = effective
        return self._request(message, timeout=effective + 15.0)["job"]

    def cancel(self, job_id: int) -> Dict[str, Any]:
        """Cancel a queued job (running jobs record the wish only)."""
        return self._request({"type": protocol.MSG_CANCEL, "job_id": job_id})["job"]

    def stats(self) -> Dict[str, Any]:
        return self._request({"type": protocol.MSG_STATS})["stats"]

    def metrics(self) -> Dict[str, Any]:
        """The daemon's telemetry: ``{"exposition": <Prometheus text>,
        "snapshot": <registry snapshot>}`` (protocol >= 3)."""
        response = self._request({"type": protocol.MSG_METRICS})
        return {
            "exposition": response.get("exposition", ""),
            "snapshot": response.get("snapshot", {}),
        }

    def ping(self) -> Dict[str, Any]:
        return self._request({"type": protocol.MSG_PING})

    def shutdown(self) -> None:
        self._request({"type": protocol.MSG_SHUTDOWN})


# ---------------------------------------------------------------------------
# The pash-client entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pash-client", description="Submit scripts to a running pash-serve daemon."
    )
    parser.add_argument(
        "--connect", default="127.0.0.1:7070", help="daemon address (HOST:PORT)"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="round-trip timeout in seconds"
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=10.0,
        help="keep retrying an unreachable daemon for this long",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="run a script on the daemon")
    submit.add_argument("script", help="script file to submit")
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="PATH",
        help="upload a local file into the job's virtual filesystem (repeatable)",
    )
    submit.add_argument("--backend", default=None, help="override the daemon default")
    submit.add_argument(
        "--no-wait", action="store_true", help="enqueue and print the job id only"
    )
    submit.add_argument(
        "--write-files",
        action="store_true",
        help="write the job's output files into the current directory",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the whole job payload as JSON"
    )

    for name, help_text in (
        ("status", "print a job's current state"),
        ("result", "wait for a job and print its output"),
        ("cancel", "cancel a queued job"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("job_id", type=int)

    commands.add_parser("stats", help="print daemon statistics as JSON")
    metrics = commands.add_parser(
        "metrics", help="print the daemon's Prometheus exposition"
    )
    metrics.add_argument(
        "--json", action="store_true", help="print the registry snapshot as JSON"
    )
    commands.add_parser("ping", help="check the daemon is alive")
    commands.add_parser("shutdown", help="ask the daemon to shut down")
    return parser


def _print_job(job: Dict[str, Any], arguments: Any) -> int:
    if getattr(arguments, "json", False):
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0 if job.get("state") == "done" else 1
    state = job.get("state")
    if state == "done":
        write_lines(sys.stdout.buffer, job.get("stdout", []))
        if getattr(arguments, "write_files", False):
            for name, lines in (job.get("files") or {}).items():
                write_lines(name, lines)
        return 0
    print(
        f"pash-client: job {job.get('job_id')} {state}: "
        f"{job.get('error', '(no error recorded)')}",
        file=sys.stderr,
    )
    return 1


def main(argv: Optional[list] = None) -> int:
    arguments = build_parser().parse_args(argv)
    client = ServiceClient(
        arguments.connect,
        timeout=arguments.timeout,
        retry_seconds=arguments.retry_seconds,
    )
    try:
        if arguments.command == "submit":
            try:
                source = read_lines(arguments.script)
            except OSError as exc:
                print(f"pash-client: cannot read script: {exc}", file=sys.stderr)
                return 2
            files = {}
            for path in arguments.input:
                try:
                    files[path] = read_lines(path)
                except OSError as exc:
                    print(f"pash-client: cannot read input: {exc}", file=sys.stderr)
                    return 2
            job = client.submit(
                "\n".join(source),
                tenant=arguments.tenant,
                files=files or None,
                backend=arguments.backend,
                wait=not arguments.no_wait,
                timeout=arguments.timeout,
            )
            if arguments.no_wait:
                print(job["job_id"])
                return 0
            return _print_job(job, arguments)
        if arguments.command == "status":
            job = client.status(arguments.job_id)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0
        if arguments.command == "result":
            return _print_job(
                client.result(arguments.job_id, timeout=arguments.timeout), arguments
            )
        if arguments.command == "cancel":
            job = client.cancel(arguments.job_id)
            print(f"pash-client: job {job['job_id']} is now {job['state']}")
            return 0
        if arguments.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if arguments.command == "metrics":
            payload = client.metrics()
            if arguments.json:
                print(json.dumps(payload["snapshot"], indent=2, sort_keys=True))
            else:
                sys.stdout.write(payload["exposition"])
            return 0
        if arguments.command == "ping":
            pong = client.ping()
            print(f"pash-serve {pong['version']} (pid {pong['pid']}) is alive")
            return 0
        if arguments.command == "shutdown":
            client.shutdown()
            print("pash-client: daemon acknowledged shutdown")
            return 0
        return 2
    except ServiceBusy as busy:
        print(f"pash-client: rejected ({busy.code}): {busy}", file=sys.stderr)
        return 3
    except ServiceError as error:
        print(f"pash-client: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())
