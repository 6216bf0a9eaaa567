"""The client's transport against stub HTTP servers."""

from __future__ import annotations

import json

import pytest

from repro.service.client import ServiceClient, ServiceError
from tests.service.stub_server import response


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
