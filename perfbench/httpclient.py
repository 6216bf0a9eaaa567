"""The benchmark's own HTTP/1.1 client.

It shares no code with the program's service package on purpose: the
measuring instrument must not change when the program's HTTP framing
does.  Two pieces:

* :func:`request` — one blocking request on a fresh connection, for
  set-up and for reading ``/metrics``;
* :func:`closed_loop` — one asyncio process driving N keep-alive
  connections, each sending its next request only after the previous
  response has been read in full.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Requests are prebuilt as (kind, route label, wire bytes).
Prepared = Tuple[str, str, bytes]


def encode_request(method: str, target: str, host: str,
                   body: Optional[Any] = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = [f"{method} {target} HTTP/1.1", f"Host: {host}",
            "Connection: keep-alive"]
    if body is not None:
        head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(payload)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"bad status line {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


def request(host: str, port: int, method: str, target: str,
            body: Optional[Any] = None, timeout: float = 120.0
            ) -> Tuple[int, Any]:
    """One blocking request; returns ``(status, parsed JSON body)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_request(method, target, f"{host}:{port}", body))
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before headers")
            buf += chunk
        head, _, rest = buf.partition(b"\r\n\r\n")
        status, headers = _parse_head(head)
        length = int(headers.get("content-length", "0"))
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            rest += chunk
    return status, json.loads(rest[:length]) if length else None


@dataclass
class LoopStats:
    """Everything the closed loop observed."""

    #: (kind, latency seconds, traced segment?) per completed request.
    samples: List[Tuple[str, float, bool]] = field(default_factory=list)
    #: route label -> completed requests
    by_route: Dict[str, int] = field(default_factory=dict)
    #: status -> count
    by_status: Dict[int, int] = field(default_factory=dict)
    #: request index -> body digest -> [responses, body], for the
    #: status-200 responses (any other status is already a failure)
    bodies: Dict[int, Dict[bytes, list]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reconnects: int = 0
    wall_s: float = 0.0
    #: next position in the request order
    position: int = 0
    errors: List[str] = field(default_factory=list)


async def _connection(host: str, port: int, prepared: Sequence[Prepared],
                      next_index: Callable[[], int], deadline: float,
                      traced_at: Callable[[float], bool], stats: LoopStats,
                      on_span: Optional[Callable[[str, float, float], None]]
                      ) -> None:
    reader = writer = None
    try:
        while time.perf_counter() < deadline:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            index = next_index()
            kind, route, wire = prepared[index]
            stats.attempted += 1
            start = time.perf_counter()
            try:
                writer.write(wire)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status, headers = _parse_head(head[:-4])
                body = await reader.readexactly(
                    int(headers.get("content-length", "0")))
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ValueError) as exc:
                stats.failed += 1
                if len(stats.errors) < 20:
                    stats.errors.append(
                        f"{route}: {type(exc).__name__}: {exc}")
                writer.close()
                writer = None
                stats.reconnects += 1
                continue
            end = time.perf_counter()
            traced = traced_at(start)
            if traced and on_span is not None:
                on_span(kind, start, end)
            stats.samples.append((kind, end - start, traced))
            stats.by_route[route] = stats.by_route.get(route, 0) + 1
            stats.by_status[status] = stats.by_status.get(status, 0) + 1
            if status != 200:
                stats.failed += 1
                if len(stats.errors) < 20:
                    stats.errors.append(f"{route}: status {status}")
            else:
                seen = stats.bodies.setdefault(index, {})
                key = hashlib.blake2b(body, digest_size=16).digest()
                if key in seen:
                    seen[key][0] += 1
                else:
                    seen[key] = [1, body]
            if headers.get("connection", "").lower() == "close":
                writer.close()
                writer = None
                stats.reconnects += 1
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def closed_loop(host: str, port: int, prepared: Sequence[Prepared],
                order: Sequence[int], seconds: float, connections: int,
                traced_at: Callable[[float], bool] = lambda _t: False,
                on_span: Optional[Callable[[str, float, float], None]] = None,
                stats: Optional[LoopStats] = None) -> LoopStats:
    """Drive ``connections`` keep-alive connections for ``seconds``.

    Requests are taken from ``prepared`` in the order given by
    ``order`` (cycled), one at a time per connection.  Passing the
    ``stats`` of an earlier call continues it: the request order
    resumes where it stopped and the counts accumulate.
    """
    stats = stats if stats is not None else LoopStats()

    def next_index() -> int:
        index = order[stats.position % len(order)]
        stats.position += 1
        return index

    async def main() -> None:
        start = time.perf_counter()
        deadline = start + seconds
        tasks = [asyncio.create_task(_connection(
            host, port, prepared, next_index, deadline, traced_at, stats,
            on_span)) for _ in range(connections)]
        for task in tasks:
            await task
        stats.wall_s += time.perf_counter() - start

    asyncio.run(main())
    return stats
