"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of RFC 9112 for a JSON API: request-line + headers +
``Content-Length`` bodies in, ``Content-Length``-framed responses out,
keep-alive by default.  No chunked transfer, no compression, no TLS —
the service sits on a trusted host or behind a real reverse proxy.
:func:`read_request` is the package's one HTTP/1.1 parser; the client
side, :class:`~repro.service.client.ServiceClient`, reads responses
with the stdlib's ``http.client``.

Two error channels are distinguished on purpose:

* :class:`ProtocolError` — the bytes on the wire are not HTTP, blow a
  size limit, or stop partway through a request.  The connection gets
  one ``400`` and is closed.
* :class:`ApiError` — the request parsed fine but the API rejects it
  (unknown route, unknown scenario, malformed JSON body...).  These
  become structured JSON error bodies, never tracebacks, and the
  connection stays usable.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

#: Hard ceilings that keep one bad client from ballooning memory.
MAX_HEADER_LINES = 100
MAX_BODY_BYTES = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """The peer sent bytes that cannot be framed as HTTP/1.1."""


class ApiError(Exception):
    """A structured API-level error (safe to serialise to the client)."""

    def __init__(self, status: int, code: str, message: str, **details: Any):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.details = details

    def payload(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            error["details"] = self.details
        return {"error": error}


@dataclass
class Request:
    """One parsed request, query string and headers included."""

    method: str
    target: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> Any:
        """The JSON-decoded body; ``{}`` when empty."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            ) from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request off the stream; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` for anything that is not well-formed
    HTTP/1.x — the caller answers 400 once and closes the connection.
    """
    try:
        raw_line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(f"request line too long: {exc}") from exc
    if not raw_line:
        return None
    line = raw_line.decode("latin-1").strip()
    if not line:
        raise ProtocolError("empty request line")
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            raw_header = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise ProtocolError(f"header line too long: {exc}") from exc
        if not raw_header:
            raise ProtocolError("connection closed mid-headers")
        header = raw_header.decode("latin-1").rstrip("\r\n")
        if header == "":
            break
        name, sep, value = header.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {header!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many header lines")

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise ProtocolError(
                f"bad Content-Length: {length_header!r}"
            ) from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"Content-Length out of range: {length}")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def json_response(status: int, payload: Any, keep_alive: bool = True) -> bytes:
    """Serialise one complete HTTP/1.1 JSON response."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
