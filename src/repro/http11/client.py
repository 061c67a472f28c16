"""A persistent-connection HTTP/1.1 client and a keep-alive pool.

:class:`HttpConnection` is one keep-alive connection, serial or pipelined;
the paper's persistent-session format cache assumes exactly this — repeated
SOAP-bin calls to the same host must not pay TCP setup (or a fresh PBIO
format announcement) per request.  :class:`HttpConnectionPool` extends that
to many hosts and many concurrent callers: per-host idle lists with
max-idle eviction and a retry-once policy for sockets that went stale while
pooled.
"""

from __future__ import annotations

import collections
import itertools
import select
import socket
import threading
import time
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from .errors import HttpConnectionClosed, HttpError
from .messages import (Headers, LAST_CHUNK, LineReader, Request, Response,
                       ResponseParser, encode_chunk, read_response)

_RECV_SIZE = 256 * 1024
_SENDMSG_BATCH = 64


class PipelineError(HttpError):
    """A pipelined batch failed part-way through.

    ``responses`` holds the completed prefix (strictly in request order),
    ``failed_index`` is the index of the first request that received no
    response, and ``bytes_written`` tells retry machinery whether any of
    this batch reached the wire (False means a resend is provably safe).
    """

    def __init__(self, message: str, responses: List[Response],
                 failed_index: int, bytes_written: bool = True) -> None:
        super().__init__(message)
        self.responses = responses
        self.failed_index = failed_index
        self.bytes_written = bytes_written


def _wants_close(headers: Headers) -> bool:
    return (headers.get("Connection") or "").lower() == "close"


class HttpConnection:
    """One keep-alive connection to an HTTP server.

    :meth:`request` is one blocking round trip; :meth:`request_many`
    pipelines a batch with up to ``depth`` requests on the wire (RFC 9112
    §9.3.2).  Both read through the reader's one ``ResponseParser``.

    Reconnects transparently if the server closed the connection between
    requests (idle keep-alive timeout), but never retries a request that
    failed mid-flight — retry policy belongs to callers who know their
    idempotency.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 timeout: float = 30.0, depth: int = 1) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        #: socket timeout of :meth:`request`; for :meth:`request_many` an
        #: inactivity bound (no byte sent or received for this long)
        self.timeout = timeout
        self.depth = depth
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[LineReader] = None
        self.requests_sent = 0
        #: request-body bytes written through :meth:`stream` (pre-framing)
        self.bytes_streamed = 0

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address,
                                              timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = LineReader(self._sock.recv)

    def _ensure_connected(self) -> None:
        if self._sock is None:
            try:
                self._connect()
            except OSError as exc:
                self.close()
                exc.bytes_written = False
                raise

    def _exchange(self, send_and_read):
        """Run ``send_and_read()``, rerunning it once on a fresh socket
        *only* when it failed with no request bytes written (a stale
        keep-alive socket) — resending after a partial write could
        double-execute a non-idempotent operation.  Errors carry
        ``bytes_written`` so pool- and policy-level retries can make the
        same distinction."""
        for attempt in (0, 1):
            self._ensure_connected()
            try:
                return send_and_read()
            except (HttpError, OSError) as exc:
                self.close()
                if attempt == 0 and not getattr(exc, "bytes_written", True):
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def request(self, request: Request) -> Response:
        """Send ``request`` and read the response (one blocking round
        trip).  Sets ``Host`` and ``Content-Length`` automatically."""
        request.headers.set("Host", f"{self.address[0]}:{self.address[1]}")
        view = memoryview(request.to_bytes())

        def send_and_read() -> Response:
            sent = 0
            try:
                while sent < len(view):
                    sent += self._sock.send(view[sent:])
                return read_response(self._reader)
            except (HttpError, OSError) as exc:
                exc.bytes_written = sent > 0
                raise

        response = self._exchange(send_and_read)
        self.requests_sent += 1
        if _wants_close(response.headers):
            self.close()
        return response

    def request_many(self, requests: Sequence[Request]) -> List[Response]:
        """Pipeline ``requests`` on this connection; responses in order.

        Failure model: all-or-prefix.  If the connection dies or the
        server answers ``Connection: close`` mid-batch, a
        :class:`PipelineError` carries the completed prefix and the first
        unanswered index, so callers can re-drive just the suffix.  The
        whole batch is resent under :meth:`request`'s stale-socket rule.
        """
        batch = list(requests)
        if not batch:
            return []
        responses = self._exchange(lambda: self._pump(batch))
        self.requests_sent += len(batch)
        if _wants_close(responses[-1].headers):
            self.close()
        return responses

    def post(self, target: str, body: bytes, content_type: str,
             headers: Optional[Headers] = None) -> Response:
        """Convenience POST (what SOAP always does)."""
        request = Request(method="POST", target=target,
                          headers=headers or Headers(), body=body)
        request.headers.set("Content-Type", content_type)
        return self.request(request)

    def get(self, target: str) -> Response:
        return self.request(Request(method="GET", target=target))

    # ------------------------------------------------------------------
    def _pump(self, batch: List[Request]) -> List[Response]:
        """Interleave sends and receives on the non-blocking socket until
        every response of ``batch`` is parsed.  A server that responds
        while we are still sending (or stops reading while it responds)
        can never deadlock the client against a full kernel buffer."""
        sock = self._sock
        parser = self._reader.parser_for(ResponseParser)
        host = f"{self.address[0]}:{self.address[1]}"
        total = len(batch)
        responses: List[Response] = []
        out: Deque[memoryview] = collections.deque()
        serialized = 0
        total_sent = 0
        server_closing = False
        tick = min(1.0, self.timeout)
        last_progress = time.monotonic()
        # poll(), not select(): held sockets can carry fd numbers far past
        # FD_SETSIZE when thousands of connections are open in-process
        poller = select.poll()
        poller.register(sock, select.POLLIN | select.POLLPRI | select.POLLOUT)

        def fail(message: str) -> PipelineError:
            return PipelineError(message, responses, len(responses),
                                 bytes_written=total_sent > 0)

        def ingest(data: bytes) -> None:
            nonlocal server_closing
            if not data:
                raise fail(
                    "server closed connection mid-pipeline "
                    f"({len(responses)}/{total} responses received)")
            parser.feed(data)
            while True:
                try:
                    response = parser.next_response()
                except HttpError as exc:
                    raise fail(f"bad pipelined response: {exc}") from exc
                if response is None:
                    break
                responses.append(response)
                if _wants_close(response.headers):
                    server_closing = True
                    if len(responses) < total:
                        raise fail(
                            "server closed pipeline after "
                            f"{len(responses)}/{total} responses")

        sock.setblocking(False)
        try:
            while len(responses) < total:
                # Refill the window: request i goes on the wire only once
                # fewer than ``depth`` responses are outstanding before it.
                while (serialized < total and not server_closing
                       and serialized < len(responses) + self.depth):
                    request = batch[serialized]
                    if request.headers.get("Host") != host:
                        request.headers.set("Host", host)
                    out.append(memoryview(request.to_bytes()))
                    serialized += 1
                # Optimistic I/O: attempt the send and the recv directly
                # and fall back to poll() only when neither makes progress
                # — a healthy pipeline never pays a poll round trip per
                # window.
                progressed = False
                if out:
                    try:
                        sent = sock.sendmsg(
                            list(itertools.islice(out, _SENDMSG_BATCH)))
                    except (BlockingIOError, InterruptedError):
                        sent = 0
                    except OSError as exc:
                        raise fail(f"pipeline send failed: {exc}") from exc
                    total_sent += sent
                    progressed = progressed or sent > 0
                    while sent:
                        head = out[0]
                        if sent >= len(head):
                            sent -= len(head)
                            out.popleft()
                        else:
                            out[0] = head[sent:]
                            sent = 0
                try:
                    data = sock.recv(_RECV_SIZE)
                except (BlockingIOError, InterruptedError):
                    data = None
                except OSError as exc:
                    raise fail(f"pipeline recv failed: {exc}") from exc
                if data is not None:
                    ingest(data)
                    progressed = True
                if progressed:
                    last_progress = time.monotonic()
                    continue
                # Nothing moved.  With no bytes queued to send, the only
                # possible event is inbound data: wait in a single C-level
                # timeout recv — one call, no Python poll round trip.
                if not out:
                    sock.settimeout(tick)
                    try:
                        data = sock.recv(_RECV_SIZE)
                    except (socket.timeout, InterruptedError):
                        data = None
                    except OSError as exc:
                        raise fail(f"pipeline recv failed: {exc}") from exc
                    finally:
                        sock.setblocking(False)
                    if data is not None:
                        ingest(data)
                        last_progress = time.monotonic()
                        continue
                else:
                    # Queued bytes + full kernel buffer: wait on both
                    # sides.  Which event fired does not matter — the
                    # optimistic attempts above discover it, and
                    # hangups/errors surface through recv/send.
                    try:
                        poller.poll(tick * 1000.0)
                    except OSError as exc:
                        raise fail(f"pipeline poll failed: {exc}") from exc
                if time.monotonic() - last_progress >= self.timeout:
                    raise fail(
                        f"pipeline stalled for {self.timeout:.1f}s "
                        f"({len(responses)}/{total} responses received)")
        finally:
            # back to the blocking mode request() and stream() expect
            sock.settimeout(self.timeout)
        return responses

    # ------------------------------------------------------------------
    def stream(self, target: str, chunks,
               content_type: str = "application/octet-stream",
               headers: Optional[Headers] = None) -> "StreamResponse":
        """Full-duplex chunked POST: send the body from the ``chunks``
        iterable while the response streams back.

        The request body is written by a sender thread so a server that
        responds incrementally (the reactor's streaming routes) can apply
        backpressure without deadlocking the exchange: when the server
        pauses reads because *our* receive window is full, the sender
        blocks in ``send`` while this thread keeps draining the response.
        Neither side ever holds the full payload.

        Returns a :class:`StreamResponse`; iterate
        :meth:`StreamResponse.iter_chunks` to completion (or call
        :meth:`StreamResponse.read`) before reusing this connection.
        """
        self._ensure_connected()
        sock, reader = self._sock, self._reader
        request = Request(method="POST", target=target,
                          headers=headers or Headers(), body=b"")
        request.headers.set("Host",
                            f"{self.address[0]}:{self.address[1]}")
        request.headers.set("Content-Type", content_type)
        request.headers.set("Transfer-Encoding", "chunked")
        try:
            sock.sendall(request.to_bytes())
        except OSError:
            self.close()
            raise
        sender_error: List[BaseException] = []

        def _send_body() -> None:
            try:
                for chunk in chunks:
                    if chunk:
                        sock.sendall(encode_chunk(chunk))
                        self.bytes_streamed += len(chunk)
                sock.sendall(LAST_CHUNK)
            except BaseException as exc:  # noqa: BLE001 - joined by reader
                sender_error.append(exc)

        sender = threading.Thread(target=_send_body, daemon=True,
                                  name="http-stream-sender")
        sender.start()
        # a chunked response is handed out at its head and drains through
        # the parser; any other response arrives whole
        parser = reader.parser_for(ResponseParser)
        parser.stream_decider = lambda start, headers: True
        try:
            response = read_response(reader)
        except (HttpError, OSError):
            self.close()
            sender.join(timeout=5.0)
            raise
        finally:
            parser.stream_decider = None
        self.requests_sent += 1
        return StreamResponse(response, self, reader, sender, sender_error)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._reader = None

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class StreamResponse:
    """The incrementally-read half of :meth:`HttpConnection.stream`.

    ``status``/``headers`` are available immediately; the body arrives
    through :meth:`iter_chunks` (or all at once via :meth:`read`).  A
    non-chunked response — an error reply from a non-streaming endpoint —
    is read whole and yielded as a single chunk, so error handling needs
    no second code path.
    """

    def __init__(self, response: Response, conn: HttpConnection,
                 reader: LineReader, sender: threading.Thread,
                 sender_error: List[BaseException]) -> None:
        self.status = response.status
        self.headers = response.headers
        self._body = response.body
        self._conn = conn
        self._reader = reader
        self._sender = sender
        self._sender_error = sender_error
        self._finished = False

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def iter_chunks(self):
        """Yield decoded response-body chunks as they arrive; finishes the
        exchange (joins the sender thread, re-raising its error)."""
        te = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" not in te:
            if self._body:
                yield self._body
        else:
            reader = self._reader
            while True:
                data, done = reader.parser.drain_body()
                if data:
                    yield data
                if done:
                    break
                if not data:
                    reader.fill()
        self._finish()

    def read(self) -> bytes:
        """The whole body, buffered (small responses / tests)."""
        return b"".join(self.iter_chunks())

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._sender.join()
        if _wants_close(self.headers):
            self._conn.close()
        if self._sender_error and self.ok:
            # On an error response the server may legitimately have hung
            # up mid-body (stream setup failed); the status already tells
            # the story and the broken-pipe noise would only mask it.
            raise self._sender_error[0]


class HttpConnectionPool:
    """A thread-safe pool of keep-alive connections, keyed by host.

    Checkout/checkin protocol: :meth:`acquire` hands out an idle connection
    for ``address`` (or a fresh one), :meth:`release` returns it for reuse.
    The one-shot helpers (:meth:`request`, :meth:`post`, :meth:`get`) wrap
    the pair and add the pool's retry policy: if a pooled connection turns
    out to be broken mid-request — the server dropped an idle keep-alive
    socket — the request is retried exactly once on a brand-new connection.

    Idle connections are evicted once they sit unused for ``idle_timeout``
    seconds, and at most ``max_idle_per_host`` are kept per host; both
    bounds are enforced lazily on acquire/release, so the pool needs no
    background thread.

    ``max_per_host`` additionally caps *live* connections per host —
    checked-out plus idle — so a burst of concurrent callers cannot open
    an unbounded number of sockets to one server.  At the cap,
    ``overflow="block"`` makes :meth:`acquire` wait up to
    ``acquire_timeout`` seconds for a connection to come back (then fail),
    while ``overflow="fail"`` raises immediately.
    """

    def __init__(self, max_idle_per_host: int = 8,
                 idle_timeout: float = 60.0,
                 timeout: float = 30.0,
                 max_per_host: Optional[int] = None,
                 overflow: str = "block",
                 acquire_timeout: float = 10.0) -> None:
        if overflow not in ("block", "fail"):
            raise ValueError("overflow must be 'block' or 'fail'")
        if max_per_host is not None and max_per_host < 1:
            raise ValueError("max_per_host must be >= 1")
        self.max_idle_per_host = max_idle_per_host
        self.idle_timeout = idle_timeout
        self.timeout = timeout
        self.max_per_host = max_per_host
        self.overflow = overflow
        self.acquire_timeout = acquire_timeout
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: address -> [(connection, time it went idle)], newest last
        self._idle: Dict[Tuple[str, int], List[Tuple[HttpConnection, float]]] = {}
        #: address -> number of connections currently checked out
        self._in_use: Dict[Tuple[str, int], int] = {}
        self._closed = False
        self.reused = 0
        self.created = 0
        self.evicted = 0
        self.retries = 0

    # ------------------------------------------------------------------
    def acquire(self, address: Union[Tuple[str, int], str]) -> HttpConnection:
        """Check out a connection to ``address`` (reusing an idle one)."""
        if isinstance(address, str):
            address = parse_address(address)
        deadline = time.monotonic() + self.acquire_timeout
        stale: List[HttpConnection] = []
        try:
            with self._cond:
                while True:
                    if self._closed:
                        raise HttpError("connection pool is closed")
                    now = time.monotonic()
                    bucket = self._idle.get(address)
                    reusable: Optional[HttpConnection] = None
                    while bucket:
                        conn, idle_since = bucket.pop()  # newest: warmest
                        if now - idle_since > self.idle_timeout:
                            stale.append(conn)
                        else:
                            reusable = conn
                            break
                    if reusable is not None:
                        self._in_use[address] = \
                            self._in_use.get(address, 0) + 1
                        self.reused += 1
                        return reusable
                    live = (self._in_use.get(address, 0)
                            + len(self._idle.get(address, ())))
                    if self.max_per_host is None or live < self.max_per_host:
                        self._in_use[address] = \
                            self._in_use.get(address, 0) + 1
                        self.created += 1
                        return HttpConnection(address, timeout=self.timeout)
                    if self.overflow == "fail":
                        raise HttpError(
                            f"connection pool exhausted for {address}: "
                            f"{live} live >= max_per_host="
                            f"{self.max_per_host}")
                    remaining = deadline - now
                    if remaining <= 0:
                        raise HttpError(
                            f"timed out after {self.acquire_timeout:.1f}s "
                            f"waiting for a pooled connection to {address} "
                            f"(max_per_host={self.max_per_host})")
                    self._cond.wait(remaining)
        finally:
            for conn in stale:
                self.evicted += 1
                conn.close()

    def release(self, conn: HttpConnection) -> None:
        """Return a healthy connection to the pool."""
        now = time.monotonic()
        excess: List[HttpConnection] = []
        with self._cond:
            self._checkin(conn.address)
            if self._closed:
                excess.append(conn)
            else:
                bucket = self._idle.setdefault(conn.address, [])
                bucket.append((conn, now))
                while len(bucket) > self.max_idle_per_host:
                    old, _ = bucket.pop(0)
                    excess.append(old)
            self._cond.notify_all()
        for old in excess:
            self.evicted += 1
            old.close()

    def discard(self, conn: HttpConnection) -> None:
        """Close a connection instead of pooling it (after an error)."""
        with self._cond:
            self._checkin(conn.address)
            self._cond.notify_all()
        conn.close()

    def _checkin(self, address: Tuple[str, int]) -> None:
        count = self._in_use.get(address, 0)
        if count <= 1:
            self._in_use.pop(address, None)
        else:
            self._in_use[address] = count - 1

    # ------------------------------------------------------------------
    def request(self, address: Union[Tuple[str, int], str],
                request: Request) -> Response:
        """Send ``request`` on a pooled connection, retrying once on a
        broken socket — but only when no request bytes had been written
        (``exc.bytes_written`` is False), so the silent retry can never
        double-execute a request whose body partially reached the server.
        Failures after bytes hit the wire propagate; deciding whether *those*
        are resendable is :class:`~repro.reliability.policy.RetryPolicy`'s
        job, because only callers know their idempotency.
        """
        conn = self.acquire(address)
        try:
            response = conn.request(request)
        except (HttpError, HttpConnectionClosed, OSError) as exc:
            self.discard(conn)
            if getattr(exc, "bytes_written", True):
                raise
            # The pooled socket was stale; one fresh-connection retry.
            self.retries += 1
            conn = self.acquire(conn.address)
            try:
                response = conn.request(request)
            except BaseException:
                self.discard(conn)
                raise
        self.release(conn)
        return response

    def post(self, address: Union[Tuple[str, int], str], target: str,
             body: bytes, content_type: str,
             headers: Optional[Headers] = None) -> Response:
        req = Request(method="POST", target=target,
                      headers=headers or Headers(), body=body)
        req.headers.set("Content-Type", content_type)
        return self.request(address, req)

    def get(self, address: Union[Tuple[str, int], str],
            target: str) -> Response:
        return self.request(address, Request(method="GET", target=target))

    # ------------------------------------------------------------------
    def idle_count(self, address: Optional[Union[Tuple[str, int], str]] = None
                   ) -> int:
        if isinstance(address, str):
            address = parse_address(address)
        with self._lock:
            if address is not None:
                return len(self._idle.get(address, []))
            return sum(len(bucket) for bucket in self._idle.values())

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus a point-in-time occupancy snapshot."""
        with self._lock:
            return {
                "created": self.created,
                "reused": self.reused,
                "evicted": self.evicted,
                "retries": self.retries,
                "in_use": sum(self._in_use.values()),
                "idle": sum(len(bucket) for bucket in self._idle.values()),
            }

    def close(self) -> None:
        """Close every pooled connection and refuse further acquires."""
        with self._cond:
            self._closed = True
            conns = [conn for bucket in self._idle.values()
                     for conn, _ in bucket]
            self._idle.clear()
            self._cond.notify_all()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "HttpConnectionPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_default_pool: Optional[HttpConnectionPool] = None
_default_pool_lock = threading.Lock()


def default_pool() -> HttpConnectionPool:
    """The process-wide shared pool (created on first use)."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None or _default_pool._closed:
            _default_pool = HttpConnectionPool()
        return _default_pool


def parse_address(url: str) -> Tuple[str, int]:
    """Extract ``(host, port)`` from an ``http://host:port[/...]`` URL.

    >>> parse_address("http://127.0.0.1:8080/service")
    ('127.0.0.1', 8080)
    """
    if url.startswith("http://"):
        url = url[len("http://"):]
    authority = url.split("/", 1)[0]
    if ":" in authority:
        host, _, port_text = authority.partition(":")
        return host, int(port_text)
    return authority, 80
