"""HTTP/1.1 message model: headers, requests, responses, wire codecs.

SOAP rides on HTTP POST; the paper attributes part of SOAP-bin's remaining
overhead versus Sun RPC to exactly this layer ("The delay is mainly due to
SOAP-bin's use of HTTP for its transactions", §IV-A), so the reproduction
needs a real HTTP implementation rather than a function call in disguise —
header bytes, request lines and parsing all cost what they cost.

Scope: HTTP/1.1 with ``Content-Length`` framing, persistent connections,
and ``Transfer-Encoding: chunked`` for the large-message streaming path
(docs/wire-compact.md); :func:`encode_chunk` / :data:`LAST_CHUNK` frame
outgoing streams, and other transfer codings are rejected.  All parsing
is the sans-IO :class:`RequestParser` / :class:`ResponseParser` pair,
fed by the reactor from non-blocking sockets and by :class:`LineReader`
from blocking ones, so every reader frames the same bytes the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .errors import HttpConnectionClosed, HttpParseError, HttpTooLarge

#: Default cap on header-block size: plenty for SOAPAction + quality
#: headers.  Per-server overrides: ``HttpServer(max_header_bytes=...)``.
MAX_HEADER_BYTES = 64 * 1024
#: Default cap on body size (the biggest paper workload is ~1 MB images;
#: 256 MB leaves room for the stress tests).  Per-server overrides:
#: ``HttpServer(max_body_bytes=...)``.
MAX_BODY_BYTES = 256 * 1024 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class Headers:
    """A case-insensitive, order-preserving header multimap.

    Stored as ``(name, value, lowercased-name)`` triples so lookups on
    the parse/serialize hot path never re-lowercase stored keys.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        self._items.append((name, str(value), name.lower()))

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with one value."""
        lower = name.lower()
        items = self._items
        if any(t[2] == lower for t in items):
            self._items = [t for t in items if t[2] != lower]
        self._items.append((name, str(value), lower))

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        lower = name.lower()
        for _n, v, l in self._items:
            if l == lower:
                return v
        return default

    def get_all(self, name: str) -> List[str]:
        lower = name.lower()
        return [v for _n, v, l in self._items if l == lower]

    def remove(self, name: str) -> None:
        lower = name.lower()
        self._items = [t for t in self._items if t[2] != lower]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter([(n, v) for n, v, _l in self._items])

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Headers({[(n, v) for n, v, _l in self._items]!r})"


@dataclass
class Request:
    """An HTTP request."""

    method: str = "POST"
    target: str = "/"
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"
    #: True when the body is NOT in :attr:`body` but drains incrementally
    #: through ``RequestParser.drain_body`` (reactor streaming routes).
    streaming: bool = False

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    def wants_keep_alive(self) -> bool:
        token = (self.headers.get("Connection") or "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"

    def to_bytes(self) -> bytes:
        return _serialize(f"{self.method} {self.target} {self.version}",
                          self.headers, self.body)


@dataclass
class Response:
    """An HTTP response."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def reason(self) -> str:
        return REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    def to_bytes(self) -> bytes:
        return _serialize(f"{self.version} {self.status} {self.reason}",
                          self.headers, self.body)

    @classmethod
    def text(cls, status: int, message: str) -> "Response":
        resp = cls(status=status, body=message.encode("utf-8"))
        resp.headers.set("Content-Type", "text/plain; charset=utf-8")
        return resp


def etag_matches(if_none_match: Optional[str], etag: Optional[str]) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation against one strong ETag.

    ``if_none_match`` is the raw header value (may list several quoted
    tags, or ``*``); comparison is the strong one — quotes included,
    ``W/`` weak tags never match.  The list is scanned as quoted
    entity-tags, not split on commas: a comma is a legal ``etagc``, so a
    foreign tag like ``"a,b"`` is one candidate, not two.
    """
    if not if_none_match or not etag:
        return False
    header = if_none_match.strip()
    if header == "*":
        return True
    return any(candidate == etag for candidate in _iter_entity_tags(header))


def _iter_entity_tags(header: str) -> Iterator[str]:
    """Yield the entity-tags of an ``If-None-Match`` list.

    Quoted strings are scanned (entity-tags contain no escapes — DQUOTE
    is excluded from ``etagc``), so commas inside a tag never mis-split;
    weak tags keep their ``W/`` prefix, which makes them fail the strong
    comparison naturally.  Malformed unquoted segments are yielded up to
    the next comma, preserving the old lenient behaviour for them.
    """
    i, n = 0, len(header)
    while i < n:
        if header[i] in " \t,":
            i += 1
            continue
        start = i
        if header.startswith("W/", i):
            i += 2
        if i < n and header[i] == '"':
            end = header.find('"', i + 1)
            if end < 0:                 # unterminated quote: take the rest
                yield header[start:]
                return
            i = end + 1
            yield header[start:i]
        else:
            end = header.find(",", i)
            if end < 0:
                end = n
            yield header[start:end].strip()
            i = end


#: Terminal frame of a chunked body: zero-size chunk, no trailers.
LAST_CHUNK = b"0\r\n\r\n"

#: Cap on one chunk-size line (hex digits + optional extensions).
_MAX_CHUNK_LINE = 1024

#: RFC 9112 framing numbers: ``Content-Length`` is ``1*DIGIT`` and a
#: chunk size ``1*HEXDIG`` — stricter than ``int()``, which also takes
#: signs, underscores, ``0x`` prefixes and non-ASCII digits
_DIGITS = re.compile(r"[0-9]+")
_HEXDIGITS = re.compile(rb"[0-9A-Fa-f]+")


def encode_chunk(data: bytes) -> bytes:
    """Frame one non-empty chunk for ``Transfer-Encoding: chunked``.

    Empty input returns ``b""`` (an empty chunk would read as the body
    terminator); send :data:`LAST_CHUNK` explicitly to finish a stream.
    """
    if not data:
        return b""
    return b"%x\r\n" % len(data) + bytes(data) + b"\r\n"


def _parse_transfer_encoding(value: Optional[str],
                             raw_length: Optional[str]) -> bool:
    """True when ``value`` declares a chunked body.

    Only the single ``chunked`` coding is supported; anything else — and
    the illegal combination with ``Content-Length`` — fails the message
    (framing would be ambiguous, RFC 9112 §6.3).
    """
    if not value:
        return False
    codings = [t.strip().lower() for t in value.split(",") if t.strip()]
    if codings != ["chunked"]:
        raise HttpParseError(f"unsupported Transfer-Encoding {value!r}")
    if raw_length is not None:
        raise HttpParseError(
            "message has both Content-Length and Transfer-Encoding: chunked")
    return True


def _parse_chunk_size(line: bytes) -> int:
    """``1*HEXDIG`` before an optional ``;ext`` (RFC 9112 §7.1) — not
    whatever ``int(x, 16)`` accepts (``0x3``, ``0_3``, ``+3``)."""
    token = line.split(b";", 1)[0].rstrip(b" \t")
    if not _HEXDIGITS.fullmatch(token):
        raise HttpParseError(f"bad chunk size line {line!r}")
    return int(token, 16)


def _serialize(start_line: str, headers: Headers, body: bytes) -> bytes:
    parts = [start_line, "\r\n"]
    has_length = False
    for name, value, lower in headers._items:
        if lower in ("content-length", "transfer-encoding"):
            has_length = True
        parts += (name, ": ", value, "\r\n")
    if not has_length:
        parts += ("Content-Length: ", str(len(body)), "\r\n")
    parts.append("\r\n")
    return "".join(parts).encode("latin-1") + body


# ----------------------------------------------------------------------
# incremental (sans-IO) parsing: the only HTTP framing code
# ----------------------------------------------------------------------

class _IncrementalParser:
    """Push-style HTTP/1.1 message parser — the one implementation of
    start lines, headers, ``Content-Length``, chunked framing and limits.

    It does no I/O (the sans-IO split of h11,
    https://github.com/python-hyper/h11): it is *fed* whatever bytes
    arrive (:meth:`feed`) and hands out complete messages as they
    materialize (:meth:`next_message`, ``None`` while incomplete).  The
    reactor feeds it from non-blocking sockets, :class:`LineReader` from
    blocking ones.  Back-to-back pipelined messages in one buffer come
    out one at a time; the parse state survives arbitrary fragmentation,
    including a header block split mid-CRLF.

    Errors: :class:`~repro.http11.errors.HttpParseError` for malformed
    messages, :class:`~repro.http11.errors.HttpTooLarge` for limit
    violations.  An errored parser stays errored — the connection is
    unrecoverable because message framing is lost.
    """

    # chunked-parse states
    _CHUNK_SIZE, _CHUNK_DATA, _CHUNK_DATA_END, _CHUNK_TRAILERS = range(4)

    #: ``(start, headers) -> bool``, consulted for chunked messages only:
    #: True hands the message out as soon as its head parses (empty
    #: ``body``) and the body drains through :meth:`drain_body` instead of
    #: buffering.  ``start`` is the parsed start line:
    #: ``(method, target, version)`` or ``(version, status)``.
    stream_decider = None

    def __init__(self, max_header_bytes: int = MAX_HEADER_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buf = bytearray()
        #: consumption offset — bytes before it are already parsed.  The
        #: buffer is compacted lazily instead of ``del buf[:n]`` per
        #: message, which would memmove the whole tail and turn a large
        #: pipelined burst into O(n²) of copying.
        self._pos = 0
        self._scan = 0                  # resume offset for the \r\n\r\n hunt
        self._head: Optional[Tuple] = None   # parsed head awaiting its body
        self._body_length = 0
        self._failed = False
        # chunked-body state machine (Transfer-Encoding: chunked)
        self._chunked = False
        self._chunk_state = self._CHUNK_SIZE
        self._chunk_remaining = 0
        self._chunk_total = 0
        self._chunk_body = bytearray()
        self._trailer_bytes = 0
        #: streaming drain mode: the head was handed out already and body
        #: bytes leave through :meth:`drain_body` instead of accumulating
        self._streaming = False

    def feed(self, data: bytes) -> None:
        """Append freshly received bytes."""
        self._buf += data

    @property
    def mid_message(self) -> bool:
        """True while a partially received message is pending (the
        distinction between a quiet keep-alive hang-up and a 408)."""
        return (len(self._buf) > self._pos or self._head is not None
                or self._streaming)

    @property
    def buffered_bytes(self) -> int:
        return len(self._buf) - self._pos

    def _compact(self) -> None:
        if self._pos:
            del self._buf[:self._pos]
            self._scan = max(0, self._scan - self._pos)
            self._pos = 0

    def next_message(self):
        """Return the next complete message, or ``None`` if more bytes
        are needed.  Call repeatedly to drain a pipelined burst."""
        return self._step(self._next)

    def _step(self, step, *args):
        """Run one parse step; a framing error poisons the parser for
        good, because message boundaries are lost."""
        if self._failed:
            raise HttpParseError("parser already failed; framing lost")
        try:
            return step(*args)
        except (HttpParseError, HttpTooLarge):
            self._failed = True
            raise

    def _next(self):
        if self._streaming:
            # The head is already out; body bytes leave via drain_body().
            return None
        if self._head is None:
            end = self._buf.find(b"\r\n\r\n",
                                 max(self._pos, self._scan - 3))
            if end < 0:
                # up to 3 buffered bytes may be a split terminator
                if len(self._buf) - self._pos - 3 > self.max_header_bytes:
                    raise HttpTooLarge(
                        f"header block exceeds limit of "
                        f"{self.max_header_bytes} bytes")
                self._scan = len(self._buf)
                return None
            if end - self._pos > self.max_header_bytes:
                raise HttpTooLarge(
                    f"header block exceeds limit of "
                    f"{self.max_header_bytes} bytes")
            head = bytes(self._buf[self._pos:end])
            self._pos = end + 4
            self._scan = self._pos
            (start_line, headers, raw_length,
             transfer_encoding) = self._split_head(head)
            parsed_start = self._parse_start_line(start_line)
            self._body_length = self._content_length(raw_length,
                                                     transfer_encoding)
            self._head = (parsed_start, headers)
            decider = self.stream_decider
            if self._chunked and decider is not None \
                    and decider(parsed_start, headers):
                self._head = None
                self._streaming = True
                return self._build_streaming(parsed_start, headers)
        if self._chunked:
            return self._next_chunked()
        if len(self._buf) - self._pos < self._body_length:
            self._compact()  # keep the wait-for-body footprint small
            return None
        body = bytes(self._buf[self._pos:self._pos + self._body_length])
        self._pos += self._body_length
        self._finish_message_boundary()
        parsed_start, headers = self._head
        self._head = None
        self._body_length = 0
        return self._build(parsed_start, headers, body)

    # -- chunked bodies ------------------------------------------------
    def _next_chunked(self):
        if not self._pump_chunks(self._chunk_body):
            self._compact()
            return None
        body = bytes(self._chunk_body)
        parsed_start, headers = self._head
        self._head = None
        self._reset_chunk_state()
        self._finish_message_boundary()
        return self._build(parsed_start, headers, body)

    def drain_body(self) -> Tuple[bytes, bool]:
        """Streaming mode: decode whatever chunk data is buffered.

        Returns ``(data, done)``.  ``data`` may be empty while a chunk
        header straddles a read boundary; after ``done`` the parser is
        back at a message boundary, so pipelined bytes (if any) parse
        normally.  The decoded-body size limit is *not* applied here —
        constant memory is the whole point; the consumer sees every byte
        as it arrives and applies its own budget.
        """
        if not self._streaming:
            raise HttpParseError("parser is not draining a streamed body")
        sink = bytearray()
        done = self._step(self._pump_chunks, sink)
        if done:
            self._streaming = False
            self._reset_chunk_state()
            self._finish_message_boundary()
        else:
            self._compact()
        return bytes(sink), done

    def _pump_chunks(self, sink: bytearray) -> bool:
        """Advance the chunk state machine over the buffered bytes,
        appending decoded data to ``sink``.  True once the terminal chunk
        and trailer section are fully consumed."""
        buf = self._buf
        while True:
            n = len(buf)
            if self._chunk_state == self._CHUNK_SIZE:
                idx = buf.find(b"\r\n", self._pos)
                if (idx if idx >= 0 else n - 1) - self._pos > _MAX_CHUNK_LINE:
                    raise HttpParseError("chunk size line too long")
                if idx < 0:
                    return False
                size = _parse_chunk_size(bytes(buf[self._pos:idx]))
                self._pos = idx + 2
                if size == 0:
                    self._chunk_state = self._CHUNK_TRAILERS
                    continue
                self._chunk_total += size
                if not self._streaming \
                        and self._chunk_total > self.max_body_bytes:
                    raise HttpTooLarge(
                        f"chunked body exceeds limit of "
                        f"{self.max_body_bytes} bytes")
                self._chunk_remaining = size
                self._chunk_state = self._CHUNK_DATA
            elif self._chunk_state == self._CHUNK_DATA:
                take = min(n - self._pos, self._chunk_remaining)
                if take <= 0:
                    return False
                sink += buf[self._pos:self._pos + take]
                self._pos += take
                self._chunk_remaining -= take
                if self._chunk_remaining == 0:
                    self._chunk_state = self._CHUNK_DATA_END
            elif self._chunk_state == self._CHUNK_DATA_END:
                if n - self._pos < 2:
                    return False
                if bytes(buf[self._pos:self._pos + 2]) != b"\r\n":
                    raise HttpParseError("chunk data not terminated by CRLF")
                self._pos += 2
                self._chunk_state = self._CHUNK_SIZE
            else:  # _CHUNK_TRAILERS, bounded like a header block
                idx = buf.find(b"\r\n", self._pos)
                end = n if idx < 0 else idx + 2
                if self._trailer_bytes + end - self._pos \
                        > self.max_header_bytes:
                    raise HttpTooLarge(
                        f"trailer section exceeds limit of "
                        f"{self.max_header_bytes} bytes")
                if idx < 0:
                    return False
                line = bytes(buf[self._pos:idx])
                self._trailer_bytes += end - self._pos
                self._pos = end
                if not line:
                    return True
                name, sep, value = line.partition(b":")
                if not sep:
                    raise HttpParseError(f"bad trailer line {line!r}")
                if self._head is not None:
                    # a buffered message: trailers join its headers (a
                    # streamed one already handed its headers out)
                    self._head[1].add(name.decode("latin-1").strip(),
                                      value.decode("latin-1").strip())

    def _reset_chunk_state(self) -> None:
        self._chunked = False
        self._chunk_state = self._CHUNK_SIZE
        self._chunk_remaining = 0
        self._chunk_total = 0
        self._chunk_body = bytearray()
        self._trailer_bytes = 0

    def _finish_message_boundary(self) -> None:
        if self._pos >= len(self._buf):
            del self._buf[:]            # cheap reset: all bytes consumed
            self._pos = self._scan = 0
        elif self._pos > 65536:
            self._compact()

    def _build_streaming(self, parsed_start, headers: Headers):
        return self._build(parsed_start, headers, b"")

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _split_head(head: bytes) -> Tuple[str, Headers, Optional[str],
                                          Optional[str]]:
        """Split a header block; also captures the two framing headers
        (Content-Length, Transfer-Encoding) during the same pass so the
        hot path never re-scans the header list."""
        lines = head.decode("latin-1").split("\r\n")
        headers = Headers()
        items = headers._items
        content_length = transfer_encoding = None
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise HttpParseError(f"bad header line {line!r}")
            name = name.strip()
            value = value.strip()
            lower = name.lower()
            items.append((name, value, lower))
            if lower == "content-length":
                if content_length is not None and value != content_length:
                    raise HttpParseError(
                        f"conflicting Content-Length values "
                        f"{content_length!r} and {value!r}")
                content_length = value
            elif lower == "transfer-encoding":
                transfer_encoding = value
        return lines[0], headers, content_length, transfer_encoding

    def _content_length(self, raw_length: Optional[str],
                        transfer_encoding: Optional[str]) -> int:
        if _parse_transfer_encoding(transfer_encoding, raw_length):
            self._chunked = True
            return 0
        if raw_length is None:
            return 0
        if not _DIGITS.fullmatch(raw_length):
            raise HttpParseError(f"bad Content-Length {raw_length!r}")
        try:
            length = int(raw_length)
        except ValueError:  # past the interpreter's int-digits cap
            raise HttpTooLarge(f"Content-Length {raw_length[:32]}... "
                               f"exceeds limit of {self.max_body_bytes} "
                               f"bytes")
        if length > self.max_body_bytes:
            raise HttpTooLarge(
                f"body of {length} bytes exceeds limit of "
                f"{self.max_body_bytes} bytes")
        return length

    def _parse_start_line(self, line: str):  # pragma: no cover - abstract
        raise NotImplementedError

    def _build(self, parsed_start, headers: Headers,
               body: bytes):  # pragma: no cover - abstract
        raise NotImplementedError


class RequestParser(_IncrementalParser):
    """Incremental request parser (both servers' read path).  A streamed
    request comes out with ``streaming=True``."""

    def _build_streaming(self, parsed_start: Tuple[str, str, str],
                         headers: Headers) -> Request:
        request = self._build(parsed_start, headers, b"")
        request.streaming = True
        return request

    def _parse_start_line(self, line: str) -> Tuple[str, str, str]:
        parts = line.split(" ")
        if len(parts) != 3:
            raise HttpParseError(f"bad request line {line!r}")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise HttpParseError(f"unsupported HTTP version {version!r}")
        return method, target, version

    def _build(self, parsed_start: Tuple[str, str, str], headers: Headers,
               body: bytes) -> Request:
        method, target, version = parsed_start
        return Request(method=method, target=target, headers=headers,
                       body=body, version=version)

    def next_request(self) -> Optional[Request]:
        return self.next_message()


class ResponseParser(_IncrementalParser):
    """Incremental response parser (the client's read path)."""

    def _parse_start_line(self, line: str) -> Tuple[str, int]:
        parts = line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpParseError(f"bad status line {line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise HttpParseError(f"bad status code in {line!r}")
        return parts[0], status

    def _build(self, parsed_start: Tuple[str, int], headers: Headers,
               body: bytes) -> Response:
        version, status = parsed_start
        return Response(status=status, headers=headers, body=body,
                        version=version)

    def next_response(self) -> Optional[Response]:
        return self.next_message()


# ----------------------------------------------------------------------
# blocking driver over the incremental parsers
# ----------------------------------------------------------------------

class LineReader:
    """Blocking driver: feeds one incremental parser (built on first use)
    from a ``recv``-style byte source until a message completes."""

    def __init__(self, recv, bufsize: int = 65536) -> None:
        self._recv = recv
        self._bufsize = bufsize
        self.parser: Optional["_IncrementalParser"] = None

    def parser_for(self, make_parser) -> "_IncrementalParser":
        """The owned parser, built by ``make_parser()`` on first use."""
        if self.parser is None:
            self.parser = make_parser()
        return self.parser

    def read(self, make_parser):
        """Block until the parser hands out the next message."""
        parser = self.parser_for(make_parser)
        message = parser.next_message()
        while message is None:
            self.fill()
            message = parser.next_message()
        return message

    def fill(self) -> None:
        """Feed one ``recv`` to the parser.  EOF raises
        :class:`HttpConnectionClosed` between messages and
        :class:`HttpParseError` mid-message."""
        data = self._recv(self._bufsize)
        if not data:
            if self.parser.mid_message:
                raise HttpParseError("connection closed mid-message")
            raise HttpConnectionClosed("connection closed")
        self.parser.feed(data)

    def at_start(self) -> bool:
        """True between messages (no partial message pending)."""
        return self.parser is None or not self.parser.mid_message


def read_request(reader: LineReader,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES) -> Request:
    """Read one request through ``reader``'s :class:`RequestParser`.

    Raises :class:`HttpConnectionClosed` when the peer closed cleanly
    between requests (the keep-alive loop exits on that).  The size limits
    default to the module constants; servers pass their own
    (``HttpServer(max_body_bytes=..., max_header_bytes=...)``).
    """
    return reader.read(lambda: RequestParser(max_header_bytes,
                                             max_body_bytes))


def read_response(reader: LineReader) -> Response:
    """Read one response through ``reader``'s :class:`ResponseParser`."""
    return reader.read(ResponseParser)
