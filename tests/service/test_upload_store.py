"""A file a connection already uploaded travels as its digest (protocol 6).

What is pinned here: a repeated round on one connection sends no lines; a
digest resolves only on the connection that uploaded it, and a reference
the store does not hold is ``unknown-upload``, never admitted; the reply
that evicts an upload names it under ``dropped`` and the client uploads it
again instead of sending a stale reference; a file without a digest (a line
holding ``\\n``) always goes inline; the digest names content, not a list
object; a daemon whose replies carry no ``dropped`` (protocol 4 or 5) never
gets a reference; and a connection's store dies with it.
"""

import gc
import socket
import threading
import time
import uuid

import pytest

from repro.service import ServiceClient, protocol
from repro.service.uploads import UploadStore, fingerprint
from repro.wire import recv_frame, send_frame

FILES = {
    "a.txt": ["banana", "apple", "cherry"],
    "b.txt": ["apple pie", "date", "apple"],
}
JOBS = [
    ("cat a.txt b.txt | grep apple | sort", ["apple", "apple", "apple pie"]),
    ("sort b.txt", ["apple", "apple pie", "date"]),
    ("cat a.txt | wc -l", ["3"]),
]


def _inline_lines(message):
    sent = list(message.get("files", {}).values()) + list(message.get("uploads", {}).values())
    return sum(len(lines) for lines in sent)


@pytest.fixture
def wire(monkeypatch):
    """Every (message, reply) the client exchanges, in order."""
    exchanges = []
    real = protocol.exchange

    def spy(sock, message, timeout):
        response = real(sock, message, timeout)
        exchanges.append((message, response))
        return response

    monkeypatch.setattr(protocol, "exchange", spy)
    return exchanges


def _submit(sock, script, **fields):
    message = {"type": protocol.MSG_SUBMIT, "script": script, "tenant": "t", **fields}
    return protocol.exchange(sock, message, 10.0)


def _digest(lines):
    return fingerprint(lines)[0]


def test_fingerprint_names_content_not_objects():
    assert len({_digest([]), _digest([""]), _digest(["", ""]), _digest(["", "", ""])}) == 4
    assert len({_digest(["a", "b"]), _digest(["ab"]), _digest(["a", "", "b"])}) == 3
    assert fingerprint(["a", "b"]) == fingerprint(list("ab"))
    assert fingerprint(["a\nb"]) is None and fingerprint(["a", "b\n"]) is None
    assert fingerprint(["ä", "\udcff"])[1] == len("ä\n\udcff\n".encode("utf-8", "surrogatepass"))


def test_a_second_round_on_one_connection_sends_no_lines(make_daemon, client_for, wire):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    for script, expected in JOBS:
        assert client.submit(script, files=FILES)["stdout"] == expected
    first_round = daemon.stats()["uploads"]
    del wire[:]
    for script, expected in JOBS:
        assert client.submit(script, files=FILES)["stdout"] == expected
    second_round = daemon.stats()["uploads"]

    assert len(wire) == len(JOBS)
    assert sum(_inline_lines(message) for message, _ in wire) == 0
    assert all(set(message["refs"]) == set(FILES) for message, _ in wire)
    assert second_round["inline_bytes"] == first_round["inline_bytes"]
    size = {name: fingerprint(lines)[1] for name, lines in FILES.items()}
    assert second_round["referenced_bytes"] - first_round["referenced_bytes"] == len(JOBS) * sum(size.values())
    assert second_round["held_bytes"] == sum(size.values())
    assert second_round["misses"] == 0
    client.close()


def test_a_reference_resolves_only_on_the_connection_that_uploaded_it(make_daemon):
    daemon = make_daemon(executors=1)
    lines = FILES["a.txt"]
    digest = fingerprint(lines)[0]
    with protocol.connect(daemon.endpoint, 10.0) as first:
        reply = _submit(first, "sort a.txt", uploads={digest: lines}, refs={"a.txt": digest})
        assert reply["dropped"] == []
        assert reply["job"]["stdout"] == sorted(lines)
        reply = _submit(first, "sort a.txt", refs={"a.txt": digest})
        assert reply["job"]["stdout"] == sorted(lines)
        admitted = daemon.admission.stats.admitted
        with protocol.connect(daemon.endpoint, 10.0) as second:
            reply = _submit(second, "sort a.txt", refs={"a.txt": digest})
            assert reply["code"] == protocol.ERR_UNKNOWN_UPLOAD
            assert "dropped" not in reply
        assert daemon.admission.stats.admitted == admitted  # never admitted
    with protocol.connect(daemon.endpoint, 10.0) as reconnected:
        reply = _submit(reconnected, "sort a.txt", refs={"a.txt": digest})
        assert reply["code"] == protocol.ERR_UNKNOWN_UPLOAD
    assert daemon.stats()["uploads"]["misses"] == 2


def test_a_reference_its_connection_never_stored_is_unknown_upload(make_daemon):
    daemon = make_daemon(executors=1)
    digest = fingerprint(FILES["a.txt"])[0]
    with protocol.connect(daemon.endpoint, 10.0) as sock:
        reply = _submit(sock, "sort a.txt", refs={"a.txt": digest})
    assert reply["code"] == protocol.ERR_UNKNOWN_UPLOAD and "dropped" not in reply
    assert daemon.admission.stats.admitted == 0
    assert daemon.stats()["uploads"]["misses"] == 1


def test_the_evicting_reply_names_the_drop_and_the_next_submit_uploads_it(
    make_daemon, client_for, wire, monkeypatch
):
    # Room for either file, not for both.
    size = fingerprint(FILES["a.txt"])[1]
    monkeypatch.setattr(UploadStore, "CAPACITY", size + 1)
    digest_a, digest_b = (fingerprint(FILES[name])[0] for name in ("a.txt", "b.txt"))
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    for name in ("a.txt", "a.txt", "b.txt"):  # inline; uploaded; b evicts a
        job = client.submit("sort " + name, files={name: FILES[name]})
        assert job["stdout"] == sorted(FILES[name])
    (_, first), (uploaded, kept), (evicting, evicted) = wire
    assert first["dropped"] == [] and kept["dropped"] == []
    assert uploaded["uploads"] == {digest_a: FILES["a.txt"]}
    assert evicting["uploads"] == {digest_b: FILES["b.txt"]}
    assert evicted["dropped"] == [digest_a]
    del wire[:]
    job = client.submit("sort a.txt", files={"a.txt": FILES["a.txt"]})
    assert job["stdout"] == sorted(FILES["a.txt"])
    ((sent, reply),) = wire
    assert sent["refs"] == {"a.txt": digest_a}
    assert sent["uploads"] == {digest_a: FILES["a.txt"]}
    assert reply["dropped"] == [digest_b]
    assert daemon.stats()["uploads"]["misses"] == 0
    client.close()


def test_lines_holding_a_newline_go_inline_and_round_trip(make_daemon, client_for, wire):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    files = {"a.txt": ["x\ny", "z"], "b.txt": ["plain"]}
    for _ in range(3):
        assert client.submit("cat a.txt b.txt", files=files)["stdout"] == ["x\ny", "z", "plain"]
    last, _ = wire[-1]
    assert last["files"] == {"a.txt": ["x\ny", "z"]}
    assert last["refs"] == {"b.txt": fingerprint(["plain"])[0]} and "uploads" not in last
    client.close()


def test_a_list_changed_in_place_is_new_content(make_daemon, client_for, wire):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    lines = ["b", "a"]
    for _ in range(2):
        assert client.submit("sort a.txt", files={"a.txt": lines})["stdout"] == ["a", "b"]
    lines.append("0")
    assert client.submit("sort a.txt", files={"a.txt": lines})["stdout"] == ["0", "a", "b"]
    last, _ = wire[-1]
    assert last["uploads"] == {fingerprint(["b", "a", "0"])[0]: lines}
    client.close()


def _fake_daemon_receives(acknowledgement):
    """The SUBMITs a stand-in daemon receives over three client submits; it
    answers each with ``acknowledgement`` merged into a done job."""
    received = []
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve():
        connection, _ = listener.accept()
        accepted.append(connection)
        with connection:
            while True:
                message = recv_frame(connection)
                if message is None:
                    return
                received.append(message)
                job = {"job_id": len(received), "state": "done", "stdout": []}
                reply = dict(acknowledgement, type=protocol.MSG_JOB, job=job)
                send_frame(connection, reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client = ServiceClient(listener.getsockname()[:2], timeout=10.0)
        for _ in range(3):
            client.submit("sort a.txt", files=FILES)
        client.close()
        thread.join(timeout=10.0)
    finally:
        listener.close()
    assert len(accepted) == 1 and len(received) == 3
    return received


def test_a_daemon_that_acknowledges_nothing_never_gets_a_reference():
    """A protocol-4 daemon stands in: it answers every submit, stores nothing."""
    received = _fake_daemon_receives({})
    assert all(message["files"] == FILES for message in received)
    assert not any("refs" in message or "uploads" in message for message in received)


def test_a_protocol_5_daemon_never_gets_a_reference():
    """Its replies acknowledge what it ``stored``; none names what it ``dropped``."""
    received = _fake_daemon_receives({"stored": []})
    assert all(message["files"] == FILES for message in received)
    assert not any("refs" in message or "uploads" in message for message in received)


def _daemon_copies(marker, own):
    return [
        o for o in gc.get_objects()
        if type(o) is list and len(o) == 2 and o[0] == marker and o is not own
    ]


def test_the_store_is_released_when_its_connection_closes(make_daemon, client_for):
    daemon = make_daemon(executors=1)
    client = client_for(daemon)
    marker = "upload-%s" % uuid.uuid4()
    lines = [marker, "x"]
    for _ in range(3):  # inline, uploaded, referenced
        assert client.submit("wc -l a.txt", files={"a.txt": lines})["stdout"] == ["2"]
    gc.collect()
    assert len(_daemon_copies(marker, lines)) == 1  # the store's, shared by the jobs
    assert daemon.stats()["uploads"]["held_bytes"] == fingerprint(lines)[1]

    client.close()
    deadline = time.monotonic() + 10.0
    while daemon.stats()["uploads"]["held_bytes"] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert daemon.stats()["uploads"]["held_bytes"] == 0
    gc.collect()
    assert _daemon_copies(marker, lines) == []
