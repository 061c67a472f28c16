"""Incremental (push) HTTP parsers: partial feeds, pipelining, limits.

Every HTTP reader in the stack — the reactor, the threaded server's
blocking driver, the client — depends on these parsers accepting bytes
in arbitrary slices; the property tests at the end check that the split
never changes the outcome.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http11 import (HttpParseError, HttpTooLarge, RequestParser,
                          ResponseParser)
from repro.http11.errors import HttpError

REQUEST = (b"POST /svc HTTP/1.1\r\n"
           b"Host: h\r\n"
           b"Content-Length: 5\r\n"
           b"\r\n"
           b"hello")

RESPONSE = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Length: 2\r\n"
            b"\r\n"
            b"ok")


class TestFeedGranularity:
    def test_whole_message_in_one_feed(self):
        parser = RequestParser()
        parser.feed(REQUEST)
        request = parser.next_request()
        assert request.method == "POST"
        assert request.target == "/svc"
        assert request.body == b"hello"
        assert parser.next_request() is None

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_byte_at_a_time_and_odd_chunks(self, chunk):
        parser = RequestParser()
        request = None
        for i in range(0, len(REQUEST), chunk):
            parser.feed(REQUEST[i:i + chunk])
            request = parser.next_request() or request
        assert request is not None
        assert request.body == b"hello"

    def test_crlf_split_across_feeds(self):
        # the \r\n\r\n terminator arrives in two pieces; the scan-resume
        # offset must back up enough to still find it
        head, tail = REQUEST.split(b"\r\n\r\n")
        parser = RequestParser()
        parser.feed(head + b"\r\n")
        assert parser.next_request() is None
        parser.feed(b"\r\n" + tail)
        assert parser.next_request().body == b"hello"

    def test_mid_message_property(self):
        parser = RequestParser()
        assert not parser.mid_message
        parser.feed(REQUEST[:9])        # "POST /svc" — no terminator yet
        assert parser.mid_message
        parser.feed(REQUEST[9:])
        assert parser.next_request() is not None
        assert not parser.mid_message


class TestPipelining:
    def test_back_to_back_requests_from_one_buffer(self):
        parser = RequestParser()
        parser.feed(REQUEST * 3)
        bodies = []
        while True:
            request = parser.next_request()
            if request is None:
                break
            bodies.append(request.body)
        assert bodies == [b"hello"] * 3
        assert not parser.mid_message

    def test_responses_pipeline_too(self):
        parser = ResponseParser()
        parser.feed(RESPONSE * 4)
        seen = 0
        while parser.next_response() is not None:
            seen += 1
        assert seen == 4


class TestErrors:
    def test_bad_request_line(self):
        parser = RequestParser()
        parser.feed(b"NONSENSE\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_request()
        # a failed parser stays failed: the connection must close
        with pytest.raises(HttpParseError):
            parser.next_request()

    def test_bad_version(self):
        parser = RequestParser()
        parser.feed(b"GET / SPDY/99\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_request()

    def test_header_without_colon(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_request()

    def test_header_limit_without_terminator(self):
        parser = RequestParser(max_header_bytes=64)
        parser.feed(b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 100)
        with pytest.raises(HttpTooLarge):
            parser.next_request()

    def test_body_limit_names_the_limit(self):
        parser = RequestParser(max_body_bytes=8)
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        with pytest.raises(HttpTooLarge, match="limit of 8 bytes"):
            parser.next_request()

    def test_negative_content_length(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_request()

    def test_chunked_transfer_encoding_decoded(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"5\r\nhello\r\n0\r\n\r\n")
        request = parser.next_request()
        assert request.body == b"hello"
        assert not parser.mid_message

    def test_chunked_survives_fragmentation(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"3\r\nabc\r\n4\r\ndefg\r\n0\r\nX-T: 1\r\n\r\n")
        parser = RequestParser()
        request = None
        for i, byte in enumerate(raw):
            parser.feed(raw[i:i + 1])
            request = parser.next_request()
            if request is not None:
                assert i == len(raw) - 1
        assert request.body == b"abcdefg"

    def test_non_chunked_transfer_encoding_rejected(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_request()

    def test_bad_status_line(self):
        parser = ResponseParser()
        parser.feed(b"NOPE 200 OK\r\n\r\n")
        with pytest.raises(HttpParseError):
            parser.next_response()


# ----------------------------------------------------------------------
# split invariance: any byte split gives the one-shot outcome
# ----------------------------------------------------------------------

_token = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
_value = st.text("abcxyz0123456789 ;=,/", max_size=12)
_fields = st.lists(st.tuples(_token, _value), max_size=4)


@st.composite
def _framed(draw, start_line):
    """One message: ``start_line`` + fields + a Content-Length or a
    chunked body (chunk extensions and trailers included)."""
    head = [draw(start_line)] + [f"X-{n}: {v}" for n, v in draw(_fields)]
    body = draw(st.binary(max_size=40))
    if draw(st.booleans()):
        head.append(f"Content-Length: {len(body)}")
        framed = body
    else:
        head.append("Transfer-Encoding: chunked")
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        framed = b""
        for lo, hi in zip([0] + cuts, cuts + [len(body)]):
            if hi > lo:
                ext = b";x=1" if draw(st.booleans()) else b""
                framed += b"%x%s\r\n%s\r\n" % (hi - lo, ext, body[lo:hi])
        trailers = "".join(f"T-{n}: {v}\r\n" for n, v in draw(_fields))
        framed += b"0\r\n" + trailers.encode() + b"\r\n"
    return ("\r\n".join(head) + "\r\n\r\n").encode() + framed


_request = _framed(st.sampled_from(["POST /svc HTTP/1.1", "GET / HTTP/1.0"]))
_response = _framed(st.sampled_from(["HTTP/1.1 200 OK", "HTTP/1.1 500 Oops"]))


@st.composite
def _stream(draw, message):
    """Back-to-back pipelined messages, sometimes with one byte corrupted
    so the error paths are split too."""
    raw = b"".join(draw(st.lists(message, min_size=1, max_size=3)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    return raw


_limits = st.sampled_from([{}, {"max_header_bytes": 48,
                                "max_body_bytes": 16}])


def _outcome(parser_cls, limits, pieces):
    """Messages parsed and the error type raised (if any) when ``pieces``
    are fed one after another."""
    parser = parser_cls(**limits)
    messages = []
    try:
        for piece in pieces:
            parser.feed(piece)
            while True:
                message = parser.next_message()
                if message is None:
                    break
                fields = dict(vars(message), headers=list(message.headers))
                messages.append(fields)
    except HttpError as exc:
        return messages, type(exc)
    return messages, parser.mid_message


def _check_every_split(parser_cls, limits, raw):
    whole = _outcome(parser_cls, limits, [raw])
    for cut in range(1, len(raw)):
        assert _outcome(parser_cls, limits, [raw[:cut], raw[cut:]]) == whole
    assert _outcome(parser_cls, limits,
                    [raw[i:i + 1] for i in range(len(raw))]) == whole


class TestSplitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_stream(_request), _limits)
    def test_request_parser(self, raw, limits):
        _check_every_split(RequestParser, limits, raw)

    @settings(max_examples=60, deadline=None)
    @given(_stream(_response), _limits)
    def test_response_parser(self, raw, limits):
        _check_every_split(ResponseParser, limits, raw)
