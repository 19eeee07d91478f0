"""Wire-protocol security and failure-semantics regression tests.

A review of the service tier established four contracts this file pins
down:

* the daemon must never unpickle client bytes — the frame body is JSON,
  and anything else is answered ``bad-request``, never evaluated;
* a non-loopback listen address is refused unless explicitly allowed
  (the protocol carries no authentication);
* only provably-pre-send failures (the TCP connect itself) are retryable
  — a connection lost after that may already have executed the request;
* client and server agree on wait bounds, so a slow job surfaces as the
  server's typed ``timeout`` error, never a bogus socket death; and
  terminal job states are terminal even when an executor outlives
  shutdown.
"""

import json
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.service import PashServiceDaemon, ServiceError, ServiceOptions
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobState
from repro.service.uploads import fingerprint
from repro.wire import is_loopback_host

HEADER = struct.Struct(">I")
HELLO = fingerprint(["hello"])[0]


def raw_roundtrip(endpoint, payload):
    """Send one raw frame; return the raw bytes of the reply frame."""
    host, port = protocol.resolve_address(endpoint)
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.settimeout(10.0)
        sock.sendall(HEADER.pack(len(payload)) + payload)
        header = b""
        while len(header) < HEADER.size:
            header += sock.recv(HEADER.size - len(header))
        (length,) = HEADER.unpack(header)
        body = b""
        while len(body) < length:
            piece = sock.recv(length - len(body))
            assert piece, "daemon closed mid-frame"
            body += piece
    return body


# ---------------------------------------------------------------------------
# JSON body, not pickle
# ---------------------------------------------------------------------------


def test_wire_body_is_json(make_daemon):
    daemon = make_daemon(executors=0)
    body = raw_roundtrip(daemon.endpoint, json.dumps({"type": "ping"}).encode())
    reply = json.loads(body.decode("utf-8"))  # raises if the body were pickle
    assert reply["type"] == protocol.MSG_PONG
    assert reply["protocol"] == protocol.SERVICE_PROTOCOL_VERSION


def test_pickle_frame_is_rejected_not_executed(make_daemon):
    daemon = make_daemon(executors=0)
    # A benign pickle stands in for a malicious one: if the daemon parsed
    # it at all, this valid PING would be answered PONG.  It must instead
    # fail JSON parsing and come back as a clean bad-request.
    body = raw_roundtrip(daemon.endpoint, pickle.dumps({"type": "ping"}))
    reply = json.loads(body.decode("utf-8"))
    assert reply["type"] == protocol.MSG_ERROR
    assert reply["code"] == protocol.ERR_BAD_REQUEST


# ---------------------------------------------------------------------------
# Loopback by default
# ---------------------------------------------------------------------------


def test_non_loopback_listen_refused_by_default():
    daemon = PashServiceDaemon(ServiceOptions(listen="0.0.0.0:0", executors=0))
    with pytest.raises(ServiceError, match="non-loopback"):
        daemon.start()


def test_non_loopback_listen_with_allow_remote(run_with_deadline):
    daemon = PashServiceDaemon(
        ServiceOptions(listen="0.0.0.0:0", executors=0, allow_remote=True)
    )
    daemon.start()
    try:
        assert daemon.address is not None
    finally:
        run_with_deadline(daemon.shutdown, name="allow-remote shutdown")


def test_loopback_classification():
    assert is_loopback_host("127.0.0.1")
    assert is_loopback_host("localhost")
    assert is_loopback_host("::1")
    assert not is_loopback_host("0.0.0.0")
    assert not is_loopback_host("")  # binds every interface
    assert not is_loopback_host("192.168.1.5")
    assert not is_loopback_host("example.com")


# ---------------------------------------------------------------------------
# Retry safety: unreachable (pre-send) vs connection-lost (maybe executed)
# ---------------------------------------------------------------------------


def test_connect_refused_is_unreachable():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ServiceError) as err:
        protocol.request(("127.0.0.1", port), {"type": "ping"}, timeout=2.0)
    assert err.value.code == protocol.ERR_UNREACHABLE


def test_drop_after_connect_is_connection_lost_and_not_retried():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def accept_and_close():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            accepted.append(1)
            connection.close()

    thread = threading.Thread(target=accept_and_close, daemon=True)
    thread.start()
    try:
        # A generous retry window that must NOT be used: the request's
        # bytes may have reached the server, so retrying could run a
        # submission twice.
        client = ServiceClient(("127.0.0.1", port), timeout=5.0, retry_seconds=5.0)
        started = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.ping()
        elapsed = time.monotonic() - started
        assert err.value.code == protocol.ERR_CONNECTION_LOST
        assert elapsed < 4.0, "connection-lost must fail fast, not retry"
        assert len(accepted) == 1, "the request must have been sent exactly once"
    finally:
        listener.close()


# ---------------------------------------------------------------------------
# Malformed fields are bad-request, not internal
# ---------------------------------------------------------------------------


def test_malformed_fields_are_bad_request_not_internal(make_daemon, client_for):
    daemon = make_daemon(executors=0)
    client = client_for(daemon)
    response = protocol.request(daemon.endpoint, {"type": "status", "job_id": "never"})
    assert response["type"] == protocol.MSG_ERROR
    assert response["code"] == protocol.ERR_BAD_REQUEST

    job = client.submit("grep x in.txt", wait=False)
    response = protocol.request(
        daemon.endpoint,
        {"type": "result", "job_id": job["job_id"], "timeout": "soon"},
    )
    assert response["code"] == protocol.ERR_BAD_REQUEST

    # A bogus submit timeout is rejected *before* admission: no quota slot
    # is claimed and no job is enqueued for a request answered bad-request.
    admitted_before = daemon.admission.stats.admitted
    response = protocol.request(
        daemon.endpoint,
        {"type": "submit", "script": "grep x in.txt", "timeout": [1]},
    )
    assert response["code"] == protocol.ERR_BAD_REQUEST
    assert daemon.admission.stats.admitted == admitted_before


@pytest.mark.parametrize(
    "fields",
    [
        {"files": {"a.txt": "hello"}},  # was accepted: cat answered h, e, l, l, o
        {"files": {"a.txt": 5}},  # was `internal` (TypeError)
        {"files": ["a.txt"]},  # was `internal` (AttributeError)
        {"files": {"a.txt": ["ok", 5]}},
        {"stdin": "hello"},
        {"refs": ["a.txt"]},  # refs must be a dict
        {"uploads": [["hello"]]},  # uploads must be a dict
        {"refs": {"a.txt": 5}},  # a digest is a string
        {"refs": {"a.txt": None}},
        {"uploads": {HELLO: "hello"}, "refs": {"a.txt": HELLO}},  # not a list
        {"uploads": {HELLO: ["hello", 5]}},  # not lines
        {"uploads": {HELLO: ["goodbye"]}, "refs": {"a.txt": HELLO}},  # wrong digest
        {"uploads": {"hello": ["hello"]}},  # not a digest at all
        {"uploads": {fingerprint(["a", "b"])[0]: ["a\nb"]}},  # a join, not its lines
        {"files": {"a.txt": ["x"]}, "uploads": {HELLO: ["hello"]}, "refs": {"a.txt": HELLO}},
    ],
)
def test_malformed_files_and_stdin_are_refused_before_admission(make_daemon, fields):
    daemon = make_daemon(executors=0)
    admitted_before = daemon.admission.stats.admitted
    response = protocol.request(
        daemon.endpoint, {"type": "submit", "script": "cat a.txt", "wait": False, **fields}
    )
    assert response["type"] == protocol.MSG_ERROR
    assert response["code"] == protocol.ERR_BAD_REQUEST
    assert daemon.admission.stats.admitted == admitted_before
    assert daemon.admission.inflight() == 0


# ---------------------------------------------------------------------------
# Client/server wait agreement and terminal-state discipline
# ---------------------------------------------------------------------------


def test_default_wait_is_bounded_by_the_client_timeout(make_daemon, run_with_deadline):
    # executors=0: the job never finishes.  submit(wait=True, timeout=None)
    # sends the client's own timeout to the server, so the slow job comes
    # back as the server's typed timeout error (with a job snapshot) —
    # never as a fake "unreachable" when the socket dies first.
    daemon = make_daemon(executors=0)
    client = ServiceClient(daemon.endpoint, timeout=1.0)
    with pytest.raises(ServiceError) as err:
        run_with_deadline(
            lambda: client.submit("grep x in.txt"), seconds=10.0, name="bounded submit"
        )
    assert err.value.code == protocol.ERR_TIMEOUT


def test_complete_cannot_resurrect_a_failed_job():
    job = Job(job_id=1, tenant="t", script="x", backend="jit", config=None)
    assert job.try_start()
    # The shutdown path fails a job whose executor is still running...
    assert job.fail("daemon shut down", code="shutting-down") is True
    # ...so the executor's late complete() must be a no-op, not a
    # failed -> done flip.
    assert (
        job.complete(stdout=["late"], out_files={}, report=None, elapsed_seconds=0.1)
        is False
    )
    assert job.state == JobState.FAILED
    assert job.error_code == "shutting-down"
    assert job.fail("again") is False  # fail() is equally idempotent


def test_a_done_payload_carries_the_results_own_lists():
    job = Job(job_id=1, tenant="t", script="x", backend="jit", config=None)
    assert job.try_start()
    stdout, out_files = ["a", "b"], {"out.txt": ["c"]}
    assert job.complete(stdout=stdout, out_files=out_files, report=None, elapsed_seconds=0.1)
    for _ in range(2):  # no copy when the job finishes, none per snapshot
        payload = job.payload()
        assert payload["stdout"] is stdout
        assert payload["files"]["out.txt"] is out_files["out.txt"]


def test_a_second_result_call_returns_equal_output(make_daemon, client_for):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    job = client.submit("sort a.txt; cat a.txt > out.txt", files={"a.txt": ["b", "a"]}, wait=False)
    first = client.result(job["job_id"])
    second = client.result(job["job_id"])
    assert first["stdout"] == second["stdout"] == ["a", "b"]
    assert first["files"] == second["files"] == {"out.txt": ["b", "a"]}


def test_the_service_tier_does_not_load_the_pickle_tier():
    """The tenant-facing package shares framing with the cluster through
    ``repro.wire`` only: importing it must not import ``repro.cluster``."""
    import os
    import subprocess
    import sys

    import repro

    probe = (
        "import sys, repro.service, repro.service.top; "
        "loaded = [m for m in sys.modules if m.startswith('repro.cluster')]; "
        "assert not loaded, loaded"
    )
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=source),
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
