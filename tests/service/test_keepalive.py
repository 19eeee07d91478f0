"""Keep-alive connections, finish-order job retention, and released uploads.

A job's fixed cost in the daemon must not depend on connections or on the
size of the job table: a client keeps one connection per thread, the table
drops finished jobs in O(1), and a finished job holds no uploads.
"""

import gc
import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.service import PashServiceDaemon, ServiceOptions, protocol
from repro.service.client import ServiceClient
from repro.service.daemon import _is_lines
from repro.service.jobs import JobState, JobTable

HEADER = struct.Struct(">I")


def frame(message):
    body = message if isinstance(message, bytes) else json.dumps(message).encode()
    return HEADER.pack(len(body)) + body


def read_frame(sock):
    """One reply frame as a dict; None when the daemon closed the connection."""
    data = b""
    while len(data) < HEADER.size:
        piece = sock.recv(HEADER.size - len(data))
        if not piece:
            assert not data, "daemon closed mid-header"
            return None
        data += piece
    (length,) = HEADER.unpack(data)
    body = b""
    while len(body) < length:
        piece = sock.recv(length - len(body))
        assert piece, "daemon closed mid-frame"
        body += piece
    return json.loads(body.decode("utf-8"))


def raw_connection(daemon):
    sock = socket.create_connection(protocol.resolve_address(daemon.endpoint), timeout=10.0)
    sock.settimeout(10.0)
    return sock


# ---------------------------------------------------------------------------
# One connection, many requests
# ---------------------------------------------------------------------------


def test_requests_on_one_socket_are_answered_in_order(make_daemon):
    daemon = make_daemon(executors=0)
    with raw_connection(daemon) as sock:
        # Pipelined: every request is on the wire before the first reply.
        sock.sendall(b"".join(frame({"type": "status", "job_id": 1000 + n}) for n in range(8)))
        replies = [read_frame(sock) for _ in range(8)]
        sock.sendall(frame({"type": "ping"}))
        pong = read_frame(sock)
    assert [reply["code"] for reply in replies] == [protocol.ERR_UNKNOWN_JOB] * 8
    assert [reply["message"] for reply in replies] == [
        f"unknown job id {1000 + n}" for n in range(8)
    ]
    assert pong["type"] == protocol.MSG_PONG
    assert pong["protocol"] == protocol.SERVICE_PROTOCOL_VERSION == 6


def test_bad_frame_mid_connection_is_answered_then_closed(make_daemon):
    daemon = make_daemon(executors=0)
    with raw_connection(daemon) as sock:
        sock.sendall(frame({"type": "ping"}))
        assert read_frame(sock)["type"] == protocol.MSG_PONG
        sock.sendall(frame(pickle.dumps({"type": "ping"})))
        reply = read_frame(sock)
        assert reply["type"] == protocol.MSG_ERROR
        assert reply["code"] == protocol.ERR_BAD_REQUEST
        assert read_frame(sock) is None, "the framing is lost: the daemon must close"


def test_one_shot_request_still_works(make_daemon):
    daemon = make_daemon(executors=0)
    for _ in range(3):
        assert protocol.request(daemon.endpoint, {"type": "ping"})["type"] == protocol.MSG_PONG


def test_client_reuses_its_connection(make_daemon):
    daemon = make_daemon(executors=1)
    with ServiceClient(daemon.endpoint, timeout=30.0) as client:
        client.ping()
        first = client._local.connection
        for _ in range(5):
            assert client.submit("echo hi")["stdout"] == ["hi"]
        assert client._local.connection is first
        assert len(daemon._connections) == 1


def test_client_reconnects_after_the_daemon_idles_it_out(make_daemon, monkeypatch):
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT_SECONDS", 0.3)
    daemon = make_daemon(executors=0)
    with ServiceClient(daemon.endpoint, timeout=10.0) as client:
        client.ping()
        deadline = time.monotonic() + 10.0
        while daemon._connections and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not daemon._connections, "the daemon keeps an idle connection open"
        assert client.ping()["type"] == protocol.MSG_PONG


def test_client_reconnects_after_a_daemon_restart_on_the_same_port(make_daemon):
    first = make_daemon(executors=0)
    with ServiceClient(first.endpoint, timeout=10.0) as client:
        client.ping()
        first.shutdown()
        # The connection is fresh (well inside the reuse window): only the
        # EOF the old daemon left on it tells the client to reconnect.
        second = PashServiceDaemon(ServiceOptions(listen=first.endpoint, executors=0))
        second.start()
        try:
            assert client.ping()["type"] == protocol.MSG_PONG
        finally:
            second.shutdown()


def test_threads_sharing_a_client_get_separate_connections(make_daemon):
    daemon = make_daemon(executors=0)
    ports = []
    with ServiceClient(daemon.endpoint, timeout=10.0) as client:

        def work():
            client.ping()
            ports.append(client._local.connection.sock.getsockname()[1])
            client.ping()

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    assert len(ports) == 2 and ports[0] != ports[1]


def test_close_and_with_close_every_connection(make_daemon):
    daemon = make_daemon(executors=0)
    with ServiceClient(daemon.endpoint, timeout=10.0) as client:
        client.ping()
        sock = client._local.connection.sock
    assert sock.fileno() == -1
    client.ping()  # a closed client reconnects on its next call
    client.close()


def test_shutdown_ends_every_connection_thread(make_daemon):
    daemon = make_daemon(executors=0)
    clients = [ServiceClient(daemon.endpoint, timeout=10.0) for _ in range(3)]
    for client in clients:
        client.ping()
    daemon.shutdown()
    assert not daemon._connections
    assert not [t for t in threading.enumerate() if t.name == "pash-serve-conn"]
    for client in clients:
        client.close()


def test_a_dropped_client_emits_no_resource_warning():
    probe = (
        "import gc, threading\n"
        "from repro.service import PashServiceDaemon, ServiceClient, ServiceOptions\n"
        "daemon = PashServiceDaemon(ServiceOptions(listen='127.0.0.1:0', executors=0))\n"
        "daemon.start()\n"
        "client = ServiceClient(daemon.endpoint, timeout=10.0)\n"
        "client.ping()\n"
        "thread = threading.Thread(target=client.ping)\n"
        "thread.start(); thread.join()\n"
        "del client, thread\n"
        "gc.collect()\n"
        "ServiceClient(daemon.endpoint, timeout=10.0).ping()\n"
        "daemon.shutdown()\n"
    )
    import repro

    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", probe],
        env=dict(os.environ, PYTHONPATH=source),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "ResourceWarning" not in completed.stderr, completed.stderr


# ---------------------------------------------------------------------------
# Retention: O(1), in finish order
# ---------------------------------------------------------------------------


def _table(retain):
    table = JobTable()
    table.RETAIN = retain
    return table


def _new_job(table):
    return table.create(tenant="t", script="echo", backend="jit", config=None)


def test_retention_drops_jobs_in_finish_order_and_keeps_running_ones():
    table = _table(3)
    jobs = [_new_job(table) for _ in range(6)]
    running = jobs[4]
    assert running.try_start()
    # Finish out of id order: 2, 1, 4, 3, 6 (job 5 keeps running).
    for index in (1, 0, 3, 2, 5):
        assert jobs[index].fail("x")
    retained = {job.job_id for job in table.all()}
    assert retained == {3, 4, 5, 6}
    assert table.get(1) is None and table.get(2) is None
    assert table.get(5) is running and running.state == JobState.RUNNING
    # The running job's finish now pushes out the oldest finish (job 4).
    running.complete(stdout=[], out_files={}, report=None, elapsed_seconds=0.0)
    assert {job.job_id for job in table.all()} == {3, 5, 6}


def test_a_cancelled_job_counts_as_finished():
    table = _table(1)
    first, second = _new_job(table), _new_job(table)
    assert first.cancel()
    assert second.cancel()
    assert table.get(first.job_id) is None
    assert table.get(second.job_id) is second


def test_retention_under_concurrent_create_and_finish():
    table = _table(16)
    errors = []

    def worker(slot):
        try:
            for index in range(200):
                job = _new_job(table)
                if index % 3:
                    job.try_start()
                    job.complete(stdout=[], out_files={}, report=None, elapsed_seconds=0.0)
                elif slot % 2:
                    job.cancel()
                else:
                    job.fail("x")
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # Every job finished, each id was queued once: exactly RETAIN are kept.
    retained = table.all()
    assert len(retained) == 16 and all(job.state in JobState.TERMINAL for job in retained)
    assert sorted(table._finished) == sorted(job.job_id for job in retained)


def test_create_cost_does_not_grow_with_the_table():
    def create_seconds(retained):
        table = _table(retained)
        for _ in range(retained):
            _new_job(table).cancel()
        best = float("inf")
        for _ in range(7):
            started = time.perf_counter()
            jobs = [_new_job(table) for _ in range(200)]
            best = min(best, time.perf_counter() - started)
            for job in jobs:
                job.cancel()
        return best

    gc.disable()  # a collection inside one timing is noise, not cost
    try:
        small, full = create_seconds(10), create_seconds(256)
    finally:
        gc.enable()
    # A create that scanned every retained job cost 2.3x more at 256.
    assert full < 1.5 * small, (small, full)


# ---------------------------------------------------------------------------
# A finished job releases its uploads
# ---------------------------------------------------------------------------


def test_terminal_jobs_hold_no_uploads(make_daemon):
    daemon = make_daemon(executors=1)
    files = {"in.txt": ["b x", "a x", "c"]}
    with ServiceClient(daemon.endpoint, timeout=30.0) as client:
        done = client.submit("cat in.txt | grep x | sort", files=files, stdin=["s"])
        failed = client.submit("cat missing.txt", files=files, stdin=["s"])
    assert done["state"] == JobState.DONE and done["stdout"] == ["a x", "b x"]
    assert failed["state"] == JobState.FAILED
    for payload in (done, failed):
        job = daemon.jobs.get(payload["job_id"])
        assert job.files == {} and job.stdin == []
    assert files == {"in.txt": ["b x", "a x", "c"]}, "the caller's uploads are untouched"


def test_a_cancelled_job_holds_no_uploads(make_daemon):
    daemon = make_daemon(executors=0)
    with ServiceClient(daemon.endpoint, timeout=10.0) as client:
        queued = client.submit("cat in.txt", files={"in.txt": ["a"]}, wait=False)
        client.cancel(queued["job_id"])
    job = daemon.jobs.get(queued["job_id"])
    assert job.state == JobState.CANCELLED and job.files == {} and job.stdin == []


# ---------------------------------------------------------------------------
# Upload validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        ([], True),
        (["a", "b"], True),
        (["héllo", "日本", ""], True),
        ([1], False),
        (["a", None], False),
        (["a", True], False),
        ([["a"]], False),
        ([{"a": "b"}], False),
        ("ab", False),
        (None, False),
        ({"a": ["b"]}, False),
    ],
)
def test_is_lines(value, expected):
    assert _is_lines(value) is expected

