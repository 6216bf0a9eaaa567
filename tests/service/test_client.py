"""The client's transport against stub HTTP servers.

``ServiceClient`` is the package's one HTTP/1.1 response reader (the
stdlib's ``http.client`` underneath), so each response framing the
server side rejects in ``read_request`` is fed to it here too.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import MAX_BODY_BYTES, json_response
from tests.service.stub_server import response

STATUS_LINE = b"HTTP/1.1 200 OK\r\n"


def test_one_transparent_reconnect_after_keep_alive_close(serve):
    """The server answers once per connection and then closes it; the
    second call's request hits the dead connection and is retried on a
    fresh one."""

    def answer_once(server, conn):
        server.read_request(conn)
        body = json.dumps({"n": server.connections}).encode()
        conn.sendall(response(200, body))

    server = serve(answer_once)
    with ServiceClient(port=server.port, timeout=5) as client:
        assert client.request("GET", "/a") == {"n": 1}
        assert client.request("GET", "/b") == {"n": 2}
    assert server.connections == 2
    assert server.requests == 2


def test_raises_after_two_attempts_when_every_request_is_dropped(serve):
    def drop(server, conn):
        server.read_request(conn)

    server = serve(drop)
    client = ServiceClient(port=server.port, timeout=5)
    with pytest.raises(ConnectionError):
        client.request("GET", "/a")
    assert server.connections == 2
    assert server.requests == 2
    with pytest.raises(ConnectionError):
        client.request_bytes("GET", "/a")
    assert server.connections == 4


def test_error_answers_become_service_errors(serve):
    answers = iter([
        response(404, b'{"error": {"code": "no_such", "message": "gone"}}'),
        response(502, b"upstream fell over"),
        response(200, b""),
    ])

    def answer(server, conn):
        server.read_request(conn)
        conn.sendall(next(answers))

    server = serve(answer)
    with ServiceClient(port=server.port, timeout=5) as client:
        with pytest.raises(ServiceError) as missing:
            client.request("GET", "/a")
        assert (missing.value.status, missing.value.code) == (404, "no_such")
        assert missing.value.message == "gone"
        with pytest.raises(ServiceError) as garbled:
            client.request("GET", "/b")
        assert (garbled.value.status, garbled.value.code) == (
            502, "bad_payload",
        )
        assert garbled.value.message == "upstream fell over"
        assert client.request("GET", "/c") is None


# ---------------------------------------------------------------------------
# response framing
# ---------------------------------------------------------------------------

def answer_first_then_ok(first: bytes):
    """A handler that sends ``first`` on the first connection and then
    closes it; later connections get well-formed ``{"ok": true}``."""

    def handler(server, conn):
        if server.connections == 1:
            server.read_request(conn)
            conn.sendall(first)
            return
        while server.read_request(conn):
            conn.sendall(response(200, b'{"ok": true}'))

    return handler


def test_well_formed_response(serve):
    server = serve(answer_first_then_ok(
        json_response(404, {"error": "gone"}, keep_alive=False)
    ))
    with ServiceClient(port=server.port, timeout=5) as client:
        assert client.request_bytes("GET", "/a") == (
            404, b'{"error": "gone"}',
        )
        assert client.request("GET", "/b") == {"ok": True}
    assert server.connections == 2


def test_response_reason_phrase_is_optional(serve):
    server = serve(answer_first_then_ok(b"HTTP/1.1 204\r\n\r\n"))
    with ServiceClient(port=server.port, timeout=5) as client:
        assert client.request_bytes("GET", "/a") == (204, b"")


@pytest.mark.parametrize("answer, error", [
    pytest.param(b"HTTP/1.1\r\n\r\n", http.client.BadStatusLine,
                 id="status-line-without-code"),
    pytest.param(b"HTTP/1.1 OK 200\r\n\r\n", http.client.BadStatusLine,
                 id="status-line-reason-first"),
    pytest.param(b"HTTP/1.1 2000 OK\r\n\r\n", http.client.BadStatusLine,
                 id="status-code-out-of-range"),
    pytest.param(b"ICY 200 OK\r\n\r\n", http.client.BadStatusLine,
                 id="not-http"),
    pytest.param(STATUS_LINE + b"X-Filler: 1\r\n" * 101 + b"\r\n",
                 http.client.HTTPException, id="too-many-header-lines"),
    pytest.param(STATUS_LINE + b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n",
                 http.client.LineTooLong, id="overlong-header-line"),
    pytest.param(STATUS_LINE + b"Content-Length: 10\r\n\r\n{}",
                 http.client.IncompleteRead, id="truncated-body"),
    pytest.param(STATUS_LINE + b"Content-Length: 10\r\n",
                 http.client.IncompleteRead, id="truncated-headers"),
    pytest.param(STATUS_LINE + f"Content-Length: {MAX_BODY_BYTES + 1}"
                 "\r\n\r\n".encode(),
                 http.client.IncompleteRead, id="body-never-sent"),
])
def test_garbled_answer_raises_and_next_call_starts_fresh(
    serve, answer, error
):
    """A garbled answer escapes ``request_bytes`` (it is not retried),
    and the connection it left mid-exchange is dropped, so the next call
    succeeds on a fresh one."""
    server = serve(answer_first_then_ok(answer))
    with ServiceClient(port=server.port, timeout=5) as client:
        with pytest.raises(error):
            client.request_bytes("GET", "/a")
        assert client.request("GET", "/b") == {"ok": True}
        assert client.request("GET", "/c") == {"ok": True}
    assert server.connections == 2


@pytest.mark.parametrize("length", [b"-1", b"ten", b""])
def test_unusable_content_length_reads_to_close(serve, length):
    """Without a usable length the body runs to the end of the
    connection."""
    server = serve(answer_first_then_ok(
        STATUS_LINE + b"Content-Length: " + length + b"\r\n\r\n{}"
    ))
    with ServiceClient(port=server.port, timeout=5) as client:
        assert client.request_bytes("GET", "/a") == (200, b"{}")
        assert client.request("GET", "/b") == {"ok": True}
    assert server.connections == 2
