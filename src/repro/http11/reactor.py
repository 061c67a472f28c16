"""Event-driven HTTP/1.1 server: selector reactor + bounded worker pool.

The thread-per-connection model spends a thread on every keep-alive
client, busy or not — at the ROADMAP's "millions of users" scale, idle
connections exhaust threads long before the compiled codecs or the
streaming XML engine become the bottleneck.  :class:`ReactorHttpServer`
spends a *file descriptor* instead:

* one **reactor thread** owns every socket: non-blocking accept, reads
  feeding an incremental :class:`~repro.http11.messages.RequestParser`
  (partial reads, split CRLFs, pipelined bursts all welcome), and a
  per-connection **write queue** flushed with scatter-gather ``sendmsg``
  when the kernel buffer allows;
* complete requests are handed to a **bounded worker pool** where the
  existing synchronous machinery — admission control, deadline shedding,
  quality coupling, the application handler — runs unchanged
  (``_ServerCore._respond`` is shared verbatim with the threaded server);
* **HTTP/1.1 pipelining** is supported server-side: back-to-back requests
  parsed from one buffer, responses delivered strictly in request order
  (out-of-order completions wait in their pipeline slot), pipeline
  aborted on ``Connection: close`` or a malformed request;
* **backpressure** bounds every connection: a client that never reads
  has its reads paused once ``max_buffered_bytes`` of responses are
  queued, and at most ``max_pipeline`` requests may wait in a
  connection's pipeline — memory per connection is O(limits), never
  O(client behaviour).

Semantics carried over from the threaded server (same test suite runs
against both): ``max_connections`` 503s, ``/healthz``, per-request
admission shedding with ``Retry-After``/``X-Shed-Reason``, 413/400/408
error replies, ``idle_timeout_s`` (here measured from the last message
*boundary*, so byte-at-a-time slowloris headers are evicted too), and
``close(drain_s=...)`` graceful drain with zero resets.

``pipeline_execution`` selects how pipelined requests on *one* connection
are executed: ``"serial"`` (default) runs them one at a time in arrival
order — the safe choice for stateful session protocols like PBIO format
announcements — while ``"concurrent"`` dispatches every parsed request to
the pool immediately and relies on the slot machinery for response
ordering.
"""

from __future__ import annotations

import collections
import os
import queue
import selectors
import socket
import threading
import time
from typing import Deque, Dict, List, Optional, Set

from .errors import HttpParseError, HttpTooLarge
from .messages import (LAST_CHUNK, MAX_BODY_BYTES, MAX_HEADER_BYTES, Request,
                       RequestParser, Response, encode_chunk)
from .server import Handler, _ServerCore, set_reuse_port

_LISTENER = "listener"
_HANDOFF = "handoff"
_WAKE = "wake"
#: sendmsg scatter-gather batch bound (IOV_MAX is 1024 on Linux; 64 keeps
#: each syscall's setup cost trivial while still batching a whole burst).
_SENDMSG_BATCH = 64
_RECV_SIZE = 256 * 1024


class _Slot:
    """One pipelined request's place in the response order."""

    __slots__ = ("request", "response", "dispatched", "keep_alive", "error",
                 "counted")

    def __init__(self, request: Optional[Request], keep_alive: bool = True,
                 error: bool = False) -> None:
        self.request = request
        self.response: Optional[Response] = None
        self.dispatched = False
        self.keep_alive = keep_alive
        self.error = error
        #: parsed requests count toward ``requests_served`` when answered;
        #: protocol-error replies (400/413/408) do not, matching the
        #: threaded server's accounting.
        self.counted = not error


class _ActiveStream:
    """One in-flight streaming request (chunked body draining through the
    reactor to a handler instead of buffering)."""

    __slots__ = ("request", "handler", "started", "keep_alive")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.handler = None          # instantiated when the stream starts
        self.started = False         # response head written, body draining
        self.keep_alive = True


class _Conn:
    """Reactor-side connection state (touched only on the reactor thread)."""

    __slots__ = ("sock", "parser", "slots", "out", "out_bytes",
                 "boundary_at", "registered_mask", "closed", "read_eof",
                 "stop_parsing", "close_when_flushed", "paused",
                 "run", "run_lock", "run_active", "stream")

    def __init__(self, sock: socket.socket, parser: RequestParser,
                 now: float) -> None:
        self.sock = sock
        self.parser = parser
        self.slots: Deque[_Slot] = collections.deque()
        self.out: Deque[memoryview] = collections.deque()
        self.out_bytes = 0
        #: serial-mode work queue: the reactor appends parsed slots, ONE
        #: worker at a time owns the run (``run_active``) and drains it in
        #: order — a pipelined burst flows through a single handoff
        self.run: Deque[_Slot] = collections.deque()
        self.run_lock = threading.Lock()
        self.run_active = False
        #: last message boundary: connect time, or the moment the pipeline
        #: last ran dry.  The idle timer runs from here — receiving bytes
        #: does NOT reset it, which is what defeats slowloris trickling.
        self.boundary_at = now
        self.registered_mask = 0
        self.closed = False
        self.read_eof = False
        self.stop_parsing = False
        self.close_when_flushed = False
        self.paused = False
        #: active streaming request, or None (at most one per connection;
        #: it owns the wire until its terminal chunk goes out)
        self.stream: Optional[_ActiveStream] = None


class ReactorHttpServer(_ServerCore):
    """Event-driven HTTP server: see the module docstring.

    Accepts the same arguments as :class:`~repro.http11.server.HttpServer`
    plus the reactor tuning knobs:

    ``workers``
        Size of the bounded handler pool (default 8).  This bounds
        *handler* concurrency; request admission is still the
        ``admission`` controller's job.
    ``max_buffered_bytes``
        Per-connection cap on queued response bytes before reads pause.
    ``max_pipeline``
        Per-connection cap on requests waiting in the pipeline.
    ``pipeline_execution``
        ``"serial"`` or ``"concurrent"`` (see module docstring).
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, backlog: int = 128,
                 max_connections: Optional[int] = None,
                 retry_after_s: float = 1.0,
                 admission=None, load_coupling=None,
                 assume_synced_clock: bool = False,
                 idle_timeout_s: Optional[float] = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 health_path: str = "/healthz",
                 metrics_path: str = "/metrics",
                 quality_stats=None,
                 reuse_port: bool = False,
                 conn_receiver: Optional[socket.socket] = None,
                 listen: bool = True,
                 workers: int = 8,
                 max_buffered_bytes: int = 1 << 20,
                 max_pipeline: int = 128,
                 pipeline_execution: str = "serial",
                 stream_routes: Optional[Dict[str, object]] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if pipeline_execution not in ("serial", "concurrent"):
            raise ValueError(
                "pipeline_execution must be 'serial' or 'concurrent'")
        if not listen and conn_receiver is None:
            raise ValueError(
                "listen=False requires a conn_receiver — a server with "
                "neither could never see a connection")
        super().__init__(handler, max_connections=max_connections,
                         retry_after_s=retry_after_s, admission=admission,
                         load_coupling=load_coupling,
                         assume_synced_clock=assume_synced_clock,
                         idle_timeout_s=idle_timeout_s,
                         max_body_bytes=max_body_bytes,
                         max_header_bytes=max_header_bytes,
                         health_path=health_path,
                         metrics_path=metrics_path,
                         quality_stats=quality_stats)
        self.workers = workers
        self.max_buffered_bytes = max_buffered_bytes
        self.max_pipeline = max_pipeline
        self.pipeline_execution = pipeline_execution
        #: ``{target: factory}`` — requests to these paths arriving with
        #: ``Transfer-Encoding: chunked`` stream through the reactor
        #: instead of buffering: ``factory(request)`` returns a handler
        #: with ``on_chunk(data) -> Optional[bytes]`` and ``finish() ->
        #: Optional[bytes]``; returned bytes go out as response chunks.
        #: Backpressure is the ordinary write-queue bound: when
        #: ``max_buffered_bytes`` of response chunks are queued, reads
        #: pause and TCP flow control holds the sender.
        self.stream_routes: Dict[str, object] = dict(stream_routes or {})
        self._idle_cond = threading.Condition(self._lock)
        self._listener: Optional[socket.socket] = None
        if listen:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            if reuse_port:
                set_reuse_port(self._listener)
            self._listener.bind((host, port))
            self._listener.listen(backlog)
            self._listener.setblocking(False)
            self.address = self._listener.getsockname()
        #: fd-handoff accept path: connected sockets arrive over this unix
        #: socket (``socket.send_fds`` on the parent acceptor's side)
        #: instead of — or in addition to — the listener.
        self._conn_receiver = conn_receiver
        if conn_receiver is not None:
            conn_receiver.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        if self._listener is not None:
            self._selector.register(self._listener, selectors.EVENT_READ,
                                    _LISTENER)
        if self._conn_receiver is not None:
            self._selector.register(self._conn_receiver,
                                    selectors.EVENT_READ, _HANDOFF)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._conns: Set[_Conn] = set()
        #: external control requests (drain) — reactor-thread code calls
        #: methods directly instead
        self._commands: Deque[str] = collections.deque()
        #: (conn, slot, response) tuples posted by workers
        self._completions: Deque = collections.deque()
        #: True while a wakeup byte is in the socketpair and undrained —
        #: lets back-to-back completions skip the send syscall
        self._wake_pending = False
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._worker_threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"http-reactor-worker-{i}", daemon=True)
            for i in range(workers)]
        for thread in self._worker_threads:
            thread.start()
        self._thread = threading.Thread(target=self._run,
                                        name="http-reactor", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # introspection (tests, bench, docs examples)
    # ------------------------------------------------------------------
    def connection_stats(self) -> List[Dict[str, object]]:
        """Point-in-time per-connection buffering/pipeline stats.

        Read from outside the reactor thread without locking: the values
        are monotonic counters and small ints, good enough for tests and
        the bench harness to assert backpressure bounds.
        """
        return [{"buffered_bytes": conn.out_bytes,
                 "pending": len(conn.slots),
                 "paused": conn.paused}
                for conn in list(self._conns)]

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            conn, slots = job
            if slots is None:
                self._drain_run(conn)
                continue
            for slot in slots:
                if conn.closed:
                    break
                self._complete(conn, slot)

    def _drain_run(self, conn: _Conn) -> None:
        """Own ``conn.run`` until it is empty: the reactor keeps appending
        newly parsed requests while we execute, so a whole pipelined burst
        crosses the queue in one handoff instead of one per batch."""
        while True:
            with conn.run_lock:
                if not conn.run or conn.closed:
                    conn.run.clear()
                    conn.run_active = False
                    return
                slot = conn.run.popleft()
            self._complete(conn, slot)

    def _complete(self, conn: _Conn, slot: _Slot) -> None:
        try:
            response = self._respond(slot.request)
        except Exception as exc:  # noqa: BLE001 - last-ditch boundary
            response = Response.text(500, f"internal error: {exc}")
        self._completions.append((conn, slot, response))
        self._wake()

    def _wake(self) -> None:
        if self._wake_pending:
            return  # an undrained wakeup already covers us
        self._wake_pending = True
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # the pipe is full, or we are shutting down

    # ------------------------------------------------------------------
    # reactor loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while self._running:
                try:
                    events = self._selector.select(self._select_timeout())
                except OSError:
                    continue
                for key, mask in events:
                    data = key.data
                    if data is _WAKE:
                        self._drain_wake()
                    elif data is _LISTENER:
                        self._accept_ready()
                    elif data is _HANDOFF:
                        self._handoff_ready()
                    else:
                        self._socket_ready(data, mask)
                self._run_commands()
                self._process_completions()
                self._fire_timeouts()
        finally:
            self._teardown()

    def _select_timeout(self) -> Optional[float]:
        if self._commands or self._completions or not self._running:
            return 0
        if self.idle_timeout_s is None:
            return None
        now = time.monotonic()
        nearest: Optional[float] = None
        for conn in self._conns:
            if conn.slots or conn.out or conn.closed:
                continue  # not idle: the timer is armed at the boundary
            deadline = conn.boundary_at + self.idle_timeout_s
            if nearest is None or deadline < nearest:
                nearest = deadline
        if nearest is None:
            return None
        return max(0.0, nearest - now)

    def _drain_wake(self) -> None:
        # The flag is cleared AFTER the drain loop: the drain may eat a
        # byte a producer sent mid-loop (having re-set the flag), and a
        # True flag over an empty pipe would swallow every later wakeup.
        # Clearing last means the flag can only be True while a byte is
        # still in the pipe or a send is imminent — never stuck.
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        finally:
            self._wake_pending = False

    def _run_commands(self) -> None:
        while self._commands:
            command = self._commands.popleft()
            if command == "drain":
                self._begin_drain()

    # ------------------------------------------------------------------
    # accept / reject
    # ------------------------------------------------------------------
    def _accept_ready(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            self._adopt_socket(sock)

    def _handoff_ready(self) -> None:
        """Adopt connected sockets handed over the fd-handoff channel.

        The parent acceptor sends each connection as one byte of payload
        plus the fd in ancillary data (``socket.send_fds``); EOF on the
        channel means the parent is gone — existing connections keep
        being served, but no new ones can arrive that way.
        """
        receiver = self._conn_receiver
        if receiver is None:
            return
        while True:
            try:
                msg, fds, _flags, _addr = socket.recv_fds(receiver, 64, 8)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_conn_receiver()
                return
            if not msg and not fds:
                self._close_conn_receiver()
                return
            for fd in fds:
                try:
                    sock = socket.socket(fileno=fd)
                except OSError:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                    continue
                self._adopt_socket(sock)

    def _adopt_socket(self, sock: socket.socket) -> None:
        """One accepted/handed-off connection enters the reactor."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        with self._lock:
            self.connections_accepted += 1
            over_cap = (self.max_connections is not None
                        and self._active_connections
                        >= self.max_connections)
            if over_cap:
                self.connections_rejected += 1
            else:
                self._active_connections += 1
        if over_cap:
            # The reject is written synchronously: ~120 bytes always
            # fit a fresh socket's send buffer, and not registering
            # the connection is the whole point of the cap.
            try:
                sock.sendall(self._reject_response().to_bytes())
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
            return
        sock.setblocking(False)
        parser = RequestParser(
            max_header_bytes=self.max_header_bytes,
            max_body_bytes=self.max_body_bytes)
        if self.stream_routes:
            parser.stream_decider = \
                lambda start, _headers: start[1] in self.stream_routes
        conn = _Conn(sock, parser, time.monotonic())
        self._conns.add(conn)
        self._set_interest(conn)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _socket_ready(self, conn: _Conn, mask: int) -> None:
        if conn.closed:
            return
        if mask & selectors.EVENT_READ:
            self._read_ready(conn)
        if conn.closed:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)

    def _read_ready(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            conn.read_eof = True
            if not conn.slots and not conn.out:
                self._close_conn(conn)
            else:
                self._set_interest(conn)  # half-close: finish the pipeline
            return
        if conn.stop_parsing:
            return  # bytes after Connection: close / an error are ignored
        conn.parser.feed(data)
        if conn.stream is not None and conn.stream.started:
            self._pump_stream(conn)
            if not conn.closed:
                self._flush(conn)
            return
        self._parse_available(conn)
        self._advance(conn)

    def _parse_available(self, conn: _Conn) -> None:
        """Turn buffered bytes into pipeline slots (up to the caps)."""
        while not conn.stop_parsing and len(conn.slots) < self.max_pipeline:
            try:
                request = conn.parser.next_request()
            except HttpTooLarge as exc:
                self._fail_conn(conn, Response.text(413, str(exc)))
                return
            except HttpParseError as exc:
                self._fail_conn(conn,
                                Response.text(400, f"bad request: {exc}"))
                return
            if request is None:
                return
            if request.streaming:
                # The head is out of the parser but the body is still in
                # flight: the stream may only own the wire once every
                # earlier pipelined response has flushed.
                conn.stream = _ActiveStream(request)
                self._set_interest(conn)
                return
            slot = _Slot(request, keep_alive=request.wants_keep_alive())
            conn.slots.append(slot)
            if not slot.keep_alive:
                # RFC 9112: requests pipelined after Connection: close
                # are not to be processed.
                conn.stop_parsing = True
            if request.target == self.health_path:
                # Health answers from the reactor thread itself so a
                # saturated worker pool can never mask readiness.
                slot.response = self._health_response()
                slot.dispatched = True

    def _fail_conn(self, conn: _Conn, response: Response) -> None:
        """Append a protocol-error reply and poison the pipeline: earlier
        responses still go out in order, then the connection closes."""
        slot = _Slot(None, keep_alive=False, error=True)
        slot.response = response
        slot.dispatched = True
        conn.slots.append(slot)
        conn.stop_parsing = True

    # ------------------------------------------------------------------
    # streaming routes (chunked bodies drained through the reactor)
    # ------------------------------------------------------------------
    def _start_stream(self, conn: _Conn) -> None:
        """Write the chunked response head and begin draining the body.

        Runs on the reactor thread; the stream handler itself also runs
        inline here (its per-chunk work is expected to be cheap — the
        heavy lifting is exactly what streaming avoids: buffering).
        """
        stream = conn.stream
        factory = self.stream_routes.get(stream.request.target)
        try:
            stream.handler = factory(stream.request)
        except Exception as exc:  # noqa: BLE001 - handler boundary
            # Head not sent yet: a normal error response is still possible.
            conn.stream = None
            self._fail_conn(conn,
                            Response.text(500, f"stream setup failed: {exc}"))
            # the caller (_advance) has already run its flush loop, and
            # _fail_conn set stop_parsing so no later read re-runs it —
            # advance again to serialize the error slot
            self._advance(conn)
            return
        stream.started = True
        stream.keep_alive = (stream.request.wants_keep_alive()
                             and not self._draining)
        with self._lock:
            self.chunked_requests += 1
        content_type = getattr(stream.handler, "content_type",
                               "application/octet-stream")
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"Content-Type: {content_type}\r\n")
        if not stream.keep_alive:
            head += "Connection: close\r\n"
        self._queue_bytes(conn, (head + "\r\n").encode("latin-1"))
        self._pump_stream(conn)

    def _pump_stream(self, conn: _Conn) -> None:
        """Drain buffered body bytes into the handler and its output onto
        the wire.  Called on every read while a started stream owns the
        connection; completion restores normal pipelined parsing."""
        stream = conn.stream
        try:
            data, done = conn.parser.drain_body()
        except (HttpParseError, HttpTooLarge):
            # Framing lost mid-stream and the 200 head is already out —
            # the truncated chunked body tells the client the response
            # is bad; all we can do is hang up.
            self._close_conn(conn)
            return
        try:
            out = stream.handler.on_chunk(data) if data else None
            tail = stream.handler.finish() if done else None
        except Exception:  # noqa: BLE001 - handler boundary, head is out
            self._close_conn(conn)
            return
        if data:
            conn.boundary_at = time.monotonic()  # body progress != idle
            with self._lock:
                self.streamed_bytes_in += len(data)
        produced = 0
        if out:
            produced += len(out)
            self._queue_bytes(conn, encode_chunk(out))
        if done:
            if tail:
                produced += len(tail)
                self._queue_bytes(conn, encode_chunk(tail) + LAST_CHUNK)
            else:
                self._queue_bytes(conn, LAST_CHUNK)
            conn.stream = None
            conn.boundary_at = time.monotonic()
            if not stream.keep_alive:
                conn.close_when_flushed = True
        if produced:
            with self._lock:
                self.streamed_bytes_out += produced
        if done:
            with self._lock:
                self.requests_served += 1
            # Back to normal framing: pipelined bytes (if any) parse now.
            if not conn.close_when_flushed:
                self._parse_available(conn)
            self._advance(conn)

    def _queue_bytes(self, conn: _Conn, payload: bytes) -> None:
        if not payload:
            return
        conn.out.append(memoryview(payload))
        conn.out_bytes += len(payload)

    # ------------------------------------------------------------------
    # dispatch / completion / ordered flush
    # ------------------------------------------------------------------
    def _pump_dispatch(self, conn: _Conn) -> None:
        if self.pipeline_execution == "serial":
            # append to the connection's owned run: one worker at a time
            # drains it in arrival order, so ordering is preserved and a
            # burst pays one queue handoff (cross-connection parallelism
            # comes from the pool)
            batch: List[_Slot] = []
            for slot in conn.slots:
                if not slot.dispatched:
                    slot.dispatched = True
                    batch.append(slot)
            if not batch:
                return
            with conn.run_lock:
                conn.run.extend(batch)
                start = not conn.run_active
                if start:
                    conn.run_active = True
            if start:
                self._jobs.put((conn, None))
        else:
            for slot in conn.slots:
                if not slot.dispatched:
                    slot.dispatched = True
                    self._jobs.put((conn, [slot]))

    def _process_completions(self) -> None:
        touched = set()
        while self._completions:
            conn, slot, response = self._completions.popleft()
            if conn.closed:
                continue
            slot.response = response
            touched.add(conn)
        for conn in touched:
            self._advance(conn)

    def _advance(self, conn: _Conn) -> None:
        """Flush the completed head of the pipeline, dispatch what is next,
        and recompute backpressure + selector interest."""
        if conn.closed:
            return
        served = 0
        while conn.slots and conn.slots[0].response is not None:
            slot = conn.slots.popleft()
            response = slot.response
            if slot.counted:
                served += 1
            keep_alive = (slot.keep_alive and not slot.error
                          and not self._draining)
            if not keep_alive:
                response.headers.set("Connection", "close")
            payload = response.to_bytes()
            conn.out.append(memoryview(payload))
            conn.out_bytes += len(payload)
            if slot.error or not slot.keep_alive:
                conn.close_when_flushed = True
                conn.slots.clear()
                break
        if served:
            with self._lock:
                self.requests_served += served
        if self._draining and not conn.slots and conn.stream is None:
            conn.close_when_flushed = True
        if not conn.close_when_flushed:
            # slots freed: resume parsing any already-buffered pipeline
            if conn.parser.buffered_bytes and not conn.stop_parsing:
                self._parse_available(conn)
            self._pump_dispatch(conn)
            if (conn.stream is not None and not conn.stream.started
                    and not conn.slots):
                self._start_stream(conn)
        self._flush(conn)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _flush(self, conn: _Conn) -> None:
        if conn.closed:
            return
        sock = conn.sock
        while conn.out:
            try:
                if len(conn.out) > 1:
                    buffers = [conn.out[i]
                               for i in range(min(len(conn.out),
                                                  _SENDMSG_BATCH))]
                    sent = sock.sendmsg(buffers)
                else:
                    sent = sock.send(conn.out[0])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            conn.out_bytes -= sent
            while sent:
                head = conn.out[0]
                if sent >= len(head):
                    sent -= len(head)
                    conn.out.popleft()
                else:
                    conn.out[0] = head[sent:]
                    sent = 0
        if not conn.out:
            if conn.close_when_flushed or (conn.read_eof
                                           and not conn.slots):
                self._close_conn(conn)
                return
            if not conn.slots:
                conn.boundary_at = time.monotonic()
        self._set_interest(conn)

    def _set_interest(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.paused = (conn.out_bytes > self.max_buffered_bytes
                       or len(conn.slots) >= self.max_pipeline
                       # a stream waiting behind earlier pipelined
                       # responses must not keep buffering body bytes
                       or (conn.stream is not None
                           and not conn.stream.started))
        mask = 0
        if (not conn.read_eof and not conn.stop_parsing
                and not conn.paused):
            mask |= selectors.EVENT_READ
        if conn.out:
            mask |= selectors.EVENT_WRITE
        if mask == conn.registered_mask:
            return
        try:
            if conn.registered_mask == 0:
                self._selector.register(conn.sock, mask, conn)
            elif mask == 0:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, mask, conn)
            conn.registered_mask = mask
        except (KeyError, ValueError, OSError):
            self._close_conn(conn)

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------
    def _fire_timeouts(self) -> None:
        if self.idle_timeout_s is None:
            return
        now = time.monotonic()
        expired = [conn for conn in self._conns
                   if not conn.closed and not conn.slots and not conn.out
                   and now - conn.boundary_at >= self.idle_timeout_s]
        for conn in expired:
            if conn.stream is not None and conn.stream.started:
                # The 200 head is already out; a 408 is impossible.
                self._close_conn(conn)
            elif conn.parser.mid_message:
                # A timeout mid-request earns a 408; silence between
                # requests is just a quiet hang-up.  The boundary-based
                # timer means byte-at-a-time header trickling (slowloris)
                # lands here instead of resetting the clock.
                self._fail_conn(conn, Response.text(408, "request timeout"))
                self._advance(conn)
            else:
                self._close_conn(conn)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.registered_mask:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.registered_mask = 0
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.discard(conn)
        with self._idle_cond:
            self._active_connections -= 1
            self._idle_cond.notify_all()

    def _begin_drain(self) -> None:
        self._close_listener()
        self._close_conn_receiver()
        for conn in [c for c in self._conns
                     if not c.slots and not c.out and c.stream is None]:
            self._close_conn(conn)

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is None:
            return
        try:
            self._selector.unregister(listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            listener.close()
        except OSError:
            pass

    def _close_conn_receiver(self) -> None:
        receiver, self._conn_receiver = self._conn_receiver, None
        if receiver is None:
            return
        try:
            self._selector.unregister(receiver)
        except (KeyError, ValueError, OSError):
            pass
        try:
            receiver.close()
        except OSError:
            pass

    def _teardown(self) -> None:
        self._close_listener()
        self._close_conn_receiver()
        for conn in list(self._conns):
            self._close_conn(conn)
        for _ in self._worker_threads:
            self._jobs.put(None)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    def close(self, drain_s: Optional[float] = None) -> None:
        """Stop the server (same contract as the threaded server).

        ``drain_s=None`` is an immediate shutdown: the reactor closes
        every socket and exits.  With a drain bound: stop accepting and
        report not-ready, hang up idle keep-alive connections, let every
        in-flight/pipelined request finish with ``Connection: close``,
        and wait up to ``drain_s`` seconds before tearing down the rest.
        """
        if self._closed:
            return
        if drain_s is None:
            self._closed = True
            self._running = False
            self._wake()
            self._thread.join(timeout=5.0)
            return
        self._draining = True
        self._commands.append("drain")
        self._wake()
        deadline = time.monotonic() + max(0.0, drain_s)
        with self._idle_cond:
            while self._active_connections > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle_cond.wait(remaining)
        self._closed = True
        self._running = False
        self._wake()
        self._thread.join(timeout=5.0)
