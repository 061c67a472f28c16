"""Framing strictness shared by every HTTP reader: the framing numbers
must be exactly RFC 9112's, and a trailer section is bounded like a
header block — the same answer on both server models."""

import socket
import threading

import pytest

from repro.http11 import (HttpParseError, HttpServer, HttpTooLarge,
                          RequestParser, Response)

#: each frames a 3-byte body only under a lax number parser
BAD_FRAMING = {
    "content-length-sign": (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\n"
                            b"abc"),
    "content-length-underscore": (b"POST / HTTP/1.1\r\n"
                                  b"Content-Length: 0_3\r\n\r\nabc"),
    "content-length-conflict": (b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                                b"Content-Length: 5\r\n\r\nabcde"),
    "chunk-size-0x": (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                      b"\r\n0x3\r\nabc\r\n0\r\n\r\n"),
    "chunk-size-underscore": (b"POST / HTTP/1.1\r\n"
                              b"Transfer-Encoding: chunked\r\n\r\n"
                              b"0_3\r\nabc\r\n0\r\n\r\n"),
}

#: 20k small trailer lines: ~160 KB against the 64 KiB header limit
TRAILER_FLOOD = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"2\r\nhi\r\n0\r\n" + b"X-T: 1\r\n" * 20000 + b"\r\n")


def ok_handler(request):
    return Response(body=b"ok")


@pytest.fixture(params=["threaded", "reactor"])
def mode(request):
    return request.param


def exchange(address, raw: bytes) -> bytes:
    """Send ``raw`` and read until the server hangs up.  The send runs on
    a thread of its own so a server that answers early and closes cannot
    block it; a reset after the reply is part of that hang-up."""
    with socket.create_connection(address) as sock:
        sock.settimeout(10.0)

        def send():
            try:
                sock.sendall(raw)
            except OSError:
                pass

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        data = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            data += chunk
        sender.join(timeout=10.0)
    return data


class TestStrictFramingNumbers:
    @pytest.mark.parametrize("raw", BAD_FRAMING.values(), ids=BAD_FRAMING)
    def test_one_shot(self, raw):
        parser = RequestParser()
        parser.feed(raw)
        with pytest.raises(HttpParseError):
            parser.next_request()

    @pytest.mark.parametrize("raw", BAD_FRAMING.values(), ids=BAD_FRAMING)
    def test_byte_at_a_time(self, raw):
        parser = RequestParser()
        with pytest.raises(HttpParseError):
            for i in range(len(raw)):
                parser.feed(raw[i:i + 1])
                assert parser.next_request() is None

    @pytest.mark.parametrize("raw", BAD_FRAMING.values(), ids=BAD_FRAMING)
    def test_live_server_answers_400(self, mode, raw):
        with HttpServer(ok_handler, concurrency=mode) as server:
            data = exchange(server.address, raw)
            assert data.startswith(b"HTTP/1.1 400"), data[:80]
            assert server.requests_served == 0

    def test_equal_duplicate_content_length_is_one_length(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                    b"Content-Length: 3\r\n\r\nabc")
        assert parser.next_request().body == b"abc"


class TestTrailers:
    def test_buffered_trailers_join_the_headers(self, mode):
        seen = []

        def handler(request):
            seen.append(request.headers.get("X-Trailer"))
            return Response(body=request.body)

        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
               b"Connection: close\r\n\r\n"
               b"2\r\nhi\r\n0\r\nX-Trailer: 7\r\n\r\n")
        with HttpServer(handler, concurrency=mode) as server:
            data = exchange(server.address, raw)
        assert data.startswith(b"HTTP/1.1 200") and data.endswith(b"hi")
        assert seen == ["7"]

    def test_trailer_section_counts_against_header_limit(self):
        parser = RequestParser()
        parser.feed(TRAILER_FLOOD)
        with pytest.raises(HttpTooLarge, match="trailer"):
            parser.next_request()

    def test_trailer_flood_answers_413(self, mode):
        with HttpServer(ok_handler, concurrency=mode) as server:
            data = exchange(server.address, TRAILER_FLOOD)
            assert data.startswith(b"HTTP/1.1 413"), data[:80]
            assert server.requests_served == 0
