"""A one-thread stub HTTP server for the client tests.

It accepts connections one at a time on a localhost port and hands
every connection to a handler, counting connections and the requests
it read — so a test sees exactly how often its client connected and
what it sent.
"""

from __future__ import annotations

import socket
import threading


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
