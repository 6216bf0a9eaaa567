"""The client's transport against stub HTTP servers.

Each stub accepts connections one at a time on a localhost port and
hands every connection to a handler, counting connections and the
requests it read — so the tests see exactly how often the client
connected and what it sent.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError


class StubServer:
    """A one-thread TCP server calling ``handler(server, conn)`` per
    accepted connection, then closing it."""

    def __init__(self, handler) -> None:
        self.handler = handler
        self.connections = 0
        self.requests = 0
        self._stop = threading.Event()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self._sock.settimeout(0.05)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(5)
                self.handler(self, conn)

    def read_request(self, conn) -> bytes:
        """One request's head (these tests send no bodies)."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
        self.requests += 1
        return data

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


def response(status: int, body: bytes) -> bytes:
    return (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


@pytest.fixture
def serve():
    servers = []

    def start(handler):
        server = StubServer(handler)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


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
