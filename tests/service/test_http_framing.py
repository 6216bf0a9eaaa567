"""HTTP/1.1 framing of requests and responses, fed from raw bytes.

``read_request`` (the server's side) and ``read_response`` (the load
generator's side) share one header-and-body reader, so each framing
rule and size limit is checked on both.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    ProtocolError,
    TruncatedMessage,
    json_response,
    read_request,
    read_response,
)

REQUEST_LINE = b"POST /v1/rel/asrank:batch?scenario=ab12 HTTP/1.1\r\n"
STATUS_LINE = b"HTTP/1.1 200 OK\r\n"

#: Each reader with a well-formed start line for it.
READERS = [
    pytest.param(read_request, REQUEST_LINE, id="request"),
    pytest.param(read_response, STATUS_LINE, id="response"),
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


def test_well_formed_response():
    status, headers, body = feed(
        read_response, json_response(404, {"error": "gone"}, keep_alive=False)
    )
    assert status == 404
    assert headers["connection"] == "close"
    assert headers["content-length"] == str(len(body))
    assert body == b'{"error": "gone"}'


def test_response_reason_phrase_is_optional():
    assert feed(read_response, b"HTTP/1.1 204\r\n\r\n") == (204, {}, b"")


@pytest.mark.parametrize("read, start", READERS)
def test_clean_eof_is_none(read, start):
    assert feed(read, b"") is None


@pytest.mark.parametrize("read, line", [
    (read_request, b"GET /\r\n"),
    (read_request, b"GET / SPDY/3\r\n"),
    (read_request, b"\r\n"),
    (read_response, b"HTTP/1.1\r\n"),
    (read_response, b"HTTP/1.1 OK 200\r\n"),
    (read_response, b"HTTP/1.1 2000 OK\r\n"),
    (read_response, b"ICY 200 OK\r\n"),
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
    with pytest.raises(TruncatedMessage, match="mid-body"):
        feed(read, start + b"Content-Length: 10\r\n\r\n{}")


@pytest.mark.parametrize("read, start", READERS)
def test_truncated_headers(read, start):
    with pytest.raises(TruncatedMessage, match="mid-headers"):
        feed(read, start + b"Content-Length: 10\r\n")


@pytest.mark.parametrize("read, start", READERS)
def test_overlong_header_line(read, start):
    # Past the stream's 64 KiB line limit.
    with pytest.raises(ProtocolError, match="header line too long"):
        feed(read, start + b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n")
