"""HTTP/1.1 request framing, fed from raw bytes, and response framing.

``read_request`` is the package's one HTTP/1.1 parser; each framing
rule and size limit is checked against it.  ``json_response`` writes
every answer the service sends.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    ApiError,
    ProtocolError,
    json_response,
    read_request,
)

REQUEST_LINE = b"POST /v1/rel/asrank:batch?scenario=ab12 HTTP/1.1\r\n"

#: The reader with a well-formed start line for it.
READERS = [
    pytest.param(read_request, REQUEST_LINE, id="request"),
]


def feed(read, data: bytes):
    """Run ``read`` over a stream holding ``data`` and then EOF."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read(reader)

    return asyncio.run(main())


def test_well_formed_request():
    request = feed(
        read_request,
        REQUEST_LINE + b"Host: x\r\nContent-Length: 2\r\n\r\n{}",
    )
    assert request.method == "POST"
    assert request.path == "/v1/rel/asrank:batch"
    assert request.query == {"scenario": "ab12"}
    assert request.headers == {"host": "x", "content-length": "2"}
    assert request.body == b"{}"
    assert request.keep_alive


def test_target_query_and_headers_are_normalised():
    target = b"/v1/as/%31%32/neighbors?scenario=a&scenario=b&flag="
    request = feed(
        read_request,
        b"get " + target + b" HTTP/1.1\r\n"
        b"X-Tag:  one \r\nx-tag: two\r\n\r\n",
    )
    assert request.method == "GET"
    assert request.target == target.decode()
    assert request.path == "/v1/as/12/neighbors"
    # The last of a repeated key wins; blank values are kept.
    assert request.query == {"scenario": "b", "flag": ""}
    assert request.headers == {"x-tag": "two"}
    assert request.body == b""


@pytest.mark.parametrize("connection, keep_alive", [
    (None, True),
    (b"keep-alive", True),
    (b"close", False),
    (b"Close", False),
])
def test_connection_header_decides_keep_alive(connection, keep_alive):
    header = b"Connection: " + connection + b"\r\n" if connection else b""
    request = feed(read_request, REQUEST_LINE + header + b"\r\n")
    assert request.keep_alive is keep_alive


def test_empty_body_decodes_to_empty_object():
    assert feed(read_request, REQUEST_LINE + b"\r\n").json() == {}


@pytest.mark.parametrize("body", [b"{", b"\xff\xfe"], ids=["json", "utf-8"])
def test_undecodable_body_is_an_api_error(body):
    request = feed(
        read_request,
        REQUEST_LINE + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
    )
    with pytest.raises(ApiError) as caught:
        request.json()
    assert (caught.value.status, caught.value.code) == (400, "invalid_json")


@pytest.mark.parametrize("keep_alive", [True, False])
def test_json_response_framing(keep_alive):
    raw = json_response(418, {"b": 1, "a": [2]}, keep_alive=keep_alive)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == "HTTP/1.1 418 Unknown"
    assert sorted(lines[1:]) == sorted([
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: " + ("keep-alive" if keep_alive else "close"),
    ])
    assert body == b'{"a": [2], "b": 1}'


@pytest.mark.parametrize("read, start", READERS)
def test_clean_eof_is_none(read, start):
    assert feed(read, b"") is None


@pytest.mark.parametrize("read, line", [
    (read_request, b"GET /\r\n"),
    (read_request, b"GET / SPDY/3\r\n"),
    (read_request, b"\r\n"),
])
def test_malformed_start_line(read, line):
    with pytest.raises(ProtocolError, match="line"):
        feed(read, line + b"\r\n")


@pytest.mark.parametrize("read, start", READERS)
def test_too_many_header_lines(read, start):
    headers = b"X-Filler: 1\r\n" * MAX_HEADER_LINES
    with pytest.raises(ProtocolError, match="too many header lines"):
        feed(read, start + headers + b"\r\n")


@pytest.mark.parametrize("read, start", READERS)
def test_header_line_without_colon(read, start):
    with pytest.raises(ProtocolError, match="malformed header line"):
        feed(read, start + b"no colon here\r\n\r\n")


@pytest.mark.parametrize("read, start", READERS)
@pytest.mark.parametrize("length", [
    b"-1", b"ten", b"", str(MAX_BODY_BYTES + 1).encode(),
])
def test_bad_content_length(read, start, length):
    with pytest.raises(ProtocolError, match="Content-Length"):
        feed(read, start + b"Content-Length: " + length + b"\r\n\r\n")


@pytest.mark.parametrize("read, start", READERS)
def test_truncated_body(read, start):
    with pytest.raises(ProtocolError, match="connection closed mid-body"):
        feed(read, start + b"Content-Length: 10\r\n\r\n{}")


@pytest.mark.parametrize("read, start", READERS)
def test_truncated_headers(read, start):
    with pytest.raises(ProtocolError, match="connection closed mid-headers"):
        feed(read, start + b"Content-Length: 10\r\n")


@pytest.mark.parametrize("read, start", READERS)
def test_overlong_header_line(read, start):
    # Past the stream's 64 KiB line limit.
    with pytest.raises(ProtocolError, match="header line too long"):
        feed(read, start + b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n")
