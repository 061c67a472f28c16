"""Real-socket transport: Channel over HTTP/1.1.

Both socket channels optionally run every call under a
:class:`~repro.reliability.policy.RetryPolicy` (plus an optional
:class:`~repro.reliability.breaker.CircuitBreaker`): pass ``retry_policy=``
and transient transport faults — stale sockets, refused connects, 503
shedding from ``HttpServer(max_connections=...)`` — are classified, retried
within the policy's deadline budget, and surfaced as typed
:class:`~repro.reliability.errors.ReliabilityError` instead of bare
``OSError``.  Without a policy the channels behave exactly as before.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union,
                    TYPE_CHECKING)

from ..http11 import (Headers, HttpConnection, HttpConnectionPool,
                      HttpError, HttpServer, PipelineError, Request,
                      Response, default_pool)
from .base import Channel, ChannelReply, Endpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.clock import Clock
    from ..reliability.breaker import CircuitBreaker
    from ..reliability.policy import CallMeta, RetryPolicy


def _policed(channel: "HttpChannel | PooledHttpChannel",
             call_once: Callable[[Optional[Dict[str, str]]], ChannelReply],
             headers: Optional[Dict[str, str]]) -> ChannelReply:
    """Run one channel call under the channel's retry policy.

    When the policy carries an end-to-end deadline budget, every attempt is
    stamped with ``X-Deadline-Ms`` — the budget *remaining at send time* —
    so an admission-controlled server (see :mod:`repro.serving`) can refuse
    work this client is going to abandon anyway.  The value shrinks across
    retries because it is recomputed per attempt.

    Imported lazily so ``repro.transport`` and ``repro.reliability`` can be
    imported in either order without a cycle.
    """
    from ..netsim.clock import WallClock
    from ..reliability.channel import reply_unavailable
    from ..reliability.policy import call_with_policy
    from ..serving.deadline import with_deadline_header

    clock = channel.clock or WallClock()
    deadline = None
    if channel.retry_policy.deadline_s is not None:
        deadline = clock.now() + channel.retry_policy.deadline_s

    def attempt() -> ChannelReply:
        sent = headers
        if deadline is not None:
            sent = with_deadline_header(headers, deadline - clock.now())
        reply = call_once(sent)
        if reply.status == 503:
            raise reply_unavailable(reply)
        return reply

    try:
        reply, meta = call_with_policy(
            attempt, channel.retry_policy, clock=channel.clock,
            idempotent=channel.idempotent, breaker=channel.breaker)
    except Exception as exc:
        channel.last_call = getattr(exc, "meta", None)
        raise
    channel.last_call = meta
    return reply


class HttpChannel(Channel):
    """A channel speaking HTTP POST over a persistent connection."""

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/", timeout: float = 30.0,
                 retry_policy: Optional["RetryPolicy"] = None,
                 breaker: Optional["CircuitBreaker"] = None,
                 clock: Optional["Clock"] = None,
                 idempotent: bool = True) -> None:
        if retry_policy is not None \
                and retry_policy.call_timeout_s is not None:
            timeout = retry_policy.call_timeout_s
        self.connection = HttpConnection(address, timeout=timeout)
        self.target = target
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.clock = clock
        self.idempotent = idempotent
        self.last_call: Optional["CallMeta"] = None

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        if self.retry_policy is None:
            return self._call_once(body, content_type, headers)
        return _policed(
            self, lambda h: self._call_once(body, content_type, h), headers)

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        extra = Headers()
        for name, value in (headers or {}).items():
            extra.set(name, value)
        response = self.connection.post(self.target, body, content_type,
                                        headers=extra)
        return ChannelReply(
            body=response.body,
            content_type=response.content_type,
            headers={name: value for name, value in response.headers},
            status=response.status,
        )

    def close(self) -> None:
        self.connection.close()


class PooledHttpChannel(Channel):
    """A channel drawing keep-alive connections from a shared pool.

    Where :class:`HttpChannel` pins one socket per channel object, this
    variant checks a connection out of an :class:`HttpConnectionPool` per
    call — the right shape when many short-lived channels (or many threads)
    target the same host: TCP setup is paid once per pooled socket, not
    once per channel.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/",
                 pool: Optional[HttpConnectionPool] = None,
                 retry_policy: Optional["RetryPolicy"] = None,
                 breaker: Optional["CircuitBreaker"] = None,
                 clock: Optional["Clock"] = None,
                 idempotent: bool = True) -> None:
        self.address = address
        self.target = target
        self.pool = pool if pool is not None else default_pool()
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.clock = clock
        self.idempotent = idempotent
        self.last_call: Optional["CallMeta"] = None

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        if self.retry_policy is None:
            return self._call_once(body, content_type, headers)
        return _policed(
            self, lambda h: self._call_once(body, content_type, h), headers)

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        extra = Headers()
        for name, value in (headers or {}).items():
            extra.set(name, value)
        response = self.pool.post(self.address, self.target, body,
                                  content_type, headers=extra)
        return ChannelReply(
            body=response.body,
            content_type=response.content_type,
            headers={name: value for name, value in response.headers},
            status=response.status,
        )

    def close(self) -> None:
        # Connections belong to the pool; closing the channel is a no-op.
        pass


def _to_reply(response: Response) -> ChannelReply:
    return ChannelReply(
        body=response.body,
        content_type=response.content_type,
        headers={name: value for name, value in response.headers},
        status=response.status,
    )


@dataclass
class BatchResult:
    """Outcome of one sub-call in a :meth:`PipelinedHttpChannel.call_many`
    batch: exactly one of ``reply`` / ``error`` is set, and ``meta`` carries
    the per-sub-call :class:`~repro.reliability.policy.CallMeta` whenever a
    retry policy drove the batch."""

    reply: Optional[ChannelReply] = None
    error: Optional[Exception] = None
    meta: Optional["CallMeta"] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.reply is not None


class _PendingCall:
    """One sub-call's mutable state inside the batch engine."""

    __slots__ = ("index", "body", "headers", "meta")

    def __init__(self, index: int, body: bytes,
                 headers: Optional[Dict[str, str]], meta) -> None:
        self.index = index
        self.body = body
        self.headers = headers
        self.meta = meta


class PipelinedHttpChannel(Channel):
    """A channel that keeps up to ``depth`` requests in flight per
    connection and spreads batches across ``connections`` sockets.

    :meth:`call` behaves exactly like :class:`HttpChannel.call` (one
    request, policed when a ``retry_policy`` is configured).
    :meth:`call_many` is the concurrency layer: the batch is split into
    contiguous chunks, one per connection, each chunk driven through an
    HTTP/1.1 pipeline at the configured depth.  With a ``retry_policy``
    the engine re-drives *only the failed suffix* of a broken pipeline —
    completed prefix responses are never re-sent — under the same
    semantics as :func:`~repro.reliability.policy.call_with_policy`:
    typed failure classification, exponential backoff honoring
    ``Retry-After``, the end-to-end deadline budget stamped per attempt
    as ``X-Deadline-Ms``, and per-sub-call
    :class:`~repro.reliability.policy.CallMeta`.  503 replies are
    treated as retryable shedding (like every policed channel); without
    a policy they are returned as ordinary replies.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/", depth: int = 8, connections: int = 1,
                 timeout: float = 30.0,
                 retry_policy: Optional["RetryPolicy"] = None,
                 breaker: Optional["CircuitBreaker"] = None,
                 clock: Optional["Clock"] = None,
                 idempotent: bool = True) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        if retry_policy is not None \
                and retry_policy.call_timeout_s is not None:
            timeout = retry_policy.call_timeout_s
        self.address = address
        self.target = target
        self.depth = depth
        self.connections = connections
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.clock = clock
        self.idempotent = idempotent
        self.last_call: Optional["CallMeta"] = None
        #: per-sub-call metadata of the most recent call_many batch
        self.last_calls: List[Optional["CallMeta"]] = []
        #: dedicated connection for single calls (never shared with the
        #: batch workers, so call() stays safe alongside call_many())
        self._call_conn = HttpConnection(address, timeout=timeout)
        self._pipes: List[HttpConnection] = []

    # ------------------------------------------------------------------
    # single-call surface (Channel protocol)
    # ------------------------------------------------------------------
    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        if self.retry_policy is None:
            return self._call_once(body, content_type, headers)
        return _policed(
            self, lambda h: self._call_once(body, content_type, h), headers)

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        return _to_reply(self._call_conn.request(
            self._build_request(body, content_type, headers)))

    # ------------------------------------------------------------------
    # batch surface
    # ------------------------------------------------------------------
    def call_many(self, bodies: Sequence[bytes], content_type: str,
                  headers: Optional[Union[Dict[str, str],
                                          Sequence[Optional[Dict[str, str]]]]]
                  = None) -> List[BatchResult]:
        """Drive ``bodies`` concurrently; one :class:`BatchResult` each.

        ``headers`` is either one dict shared by every sub-call or a
        per-sub-call sequence of the same length as ``bodies``.  Results
        come back in input order regardless of how the batch was spread
        across connections.
        """
        total = len(bodies)
        if total == 0:
            self.last_calls = []
            return []
        if headers is None or isinstance(headers, dict):
            headers_list: List[Optional[Dict[str, str]]] = \
                [headers] * total  # type: ignore[list-item]
        else:
            if len(headers) != total:
                raise ValueError(
                    f"got {len(headers)} header dicts for {total} bodies")
            headers_list = list(headers)
        fanout = min(self.connections, total)
        while len(self._pipes) < fanout:
            self._pipes.append(HttpConnection(
                self.address, timeout=self.timeout, depth=self.depth))
        chunks: List[List[_PendingCall]] = [[] for _ in range(fanout)]
        per_chunk = -(-total // fanout)  # contiguous chunks, ceil division
        for index in range(total):
            chunks[index // per_chunk].append(
                _PendingCall(index, bodies[index], headers_list[index],
                             meta=None))
        results: Dict[int, BatchResult] = {}
        if fanout == 1:
            results.update(self._drive(self._pipes[0], chunks[0],
                                       content_type))
        else:
            errors: List[BaseException] = []
            lock = threading.Lock()

            def worker(pipe: HttpConnection,
                       chunk: List[_PendingCall]) -> None:
                try:
                    chunk_results = self._drive(pipe, chunk, content_type)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results.update(chunk_results)

            threads = [threading.Thread(target=worker,
                                        args=(self._pipes[i], chunks[i]),
                                        daemon=True)
                       for i in range(fanout) if chunks[i]]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        ordered = [results[i] for i in range(total)]
        self.last_calls = [r.meta for r in ordered]
        return ordered

    # ------------------------------------------------------------------
    def _build_request(self, body: bytes, content_type: str,
                       headers: Optional[Dict[str, str]]) -> Request:
        extra = Headers()
        for name, value in (headers or {}).items():
            extra.set(name, value)
        request = Request(method="POST", target=self.target,
                          headers=extra, body=body)
        request.headers.set("Content-Type", content_type)
        return request

    def _drive(self, pipe: HttpConnection,
               chunk: List[_PendingCall],
               content_type: str) -> Dict[int, BatchResult]:
        """Run one chunk through one pipelined connection (with retries)."""
        if self.retry_policy is None:
            return self._drive_once(pipe, chunk, content_type)
        return self._drive_policed(pipe, chunk, content_type)

    def _drive_once(self, pipe: HttpConnection,
                    chunk: List[_PendingCall],
                    content_type: str) -> Dict[int, BatchResult]:
        results: Dict[int, BatchResult] = {}
        requests = [self._build_request(item.body, content_type,
                                        item.headers) for item in chunk]
        try:
            responses = pipe.request_many(requests)
        except PipelineError as exc:
            for item, response in zip(chunk, exc.responses):
                results[item.index] = BatchResult(reply=_to_reply(response))
            for item in chunk[len(exc.responses):]:
                results[item.index] = BatchResult(error=exc)
            return results
        except (HttpError, OSError) as exc:
            for item in chunk:
                results[item.index] = BatchResult(error=exc)
            return results
        for item, response in zip(chunk, responses):
            results[item.index] = BatchResult(reply=_to_reply(response))
        return results

    def _drive_policed(self, pipe: HttpConnection,
                       chunk: List[_PendingCall],
                       content_type: str) -> Dict[int, BatchResult]:
        # The batched twin of reliability.policy.call_with_policy: same
        # classification, retry-safety, backoff and deadline rules, but
        # one *round* pipelines every still-pending sub-call, and only
        # the unanswered suffix of a broken round is re-driven.
        from ..netsim.clock import WallClock
        from ..reliability.channel import reply_unavailable
        from ..reliability.errors import (CircuitOpen, DeadlineExceeded,
                                          classify_failure)
        from ..reliability.policy import CallMeta
        from ..serving.deadline import with_deadline_header

        policy = self.retry_policy
        assert policy is not None
        clock = self.clock or WallClock()
        start = clock.now()
        deadline = (start + policy.deadline_s
                    if policy.deadline_s is not None else None)
        results: Dict[int, BatchResult] = {}
        for item in chunk:
            item.meta = CallMeta(deadline_s=policy.deadline_s)

        def finalize(item: _PendingCall, error) -> None:
            item.meta.elapsed_s = clock.now() - start
            if deadline is not None:
                item.meta.deadline_remaining_s = max(
                    0.0, deadline - clock.now())
            error.attempts = item.meta.attempts
            error.meta = item.meta
            results[item.index] = BatchResult(error=error, meta=item.meta)

        def succeed(item: _PendingCall, reply: ChannelReply) -> None:
            item.meta.elapsed_s = clock.now() - start
            if deadline is not None:
                item.meta.deadline_remaining_s = deadline - clock.now()
            results[item.index] = BatchResult(reply=reply, meta=item.meta)

        pending = list(chunk)
        while pending:
            if deadline is not None and clock.now() >= deadline:
                for item in pending:
                    item.meta.faults.append("DeadlineExceeded")
                    finalize(item, DeadlineExceeded(
                        f"deadline budget of {policy.deadline_s:g}s "
                        f"exhausted after {item.meta.attempts} attempt(s)"))
                return results
            for item in pending:
                item.meta.attempts += 1
            failed: List[Tuple[_PendingCall, object]] = []
            if self.breaker is not None and not self.breaker.allow():
                for item in pending:
                    failed.append((item, CircuitOpen(
                        "circuit breaker is open",
                        retry_after_s=self.breaker.cooldown_remaining())))
            else:
                requests = []
                for item in pending:
                    sent = item.headers
                    if deadline is not None:
                        sent = with_deadline_header(
                            item.headers, deadline - clock.now())
                    requests.append(self._build_request(
                        item.body, content_type, sent))
                answered: List[Response] = []
                batch_error: Optional[BaseException] = None
                try:
                    answered = pipe.request_many(requests)
                except PipelineError as exc:
                    answered = exc.responses
                    batch_error = exc
                except (HttpError, OSError) as exc:
                    batch_error = exc
                for item, response in zip(pending, answered):
                    if response.status == 503:
                        if self.breaker is not None:
                            self.breaker.record_failure()
                        failed.append(
                            (item, reply_unavailable(_to_reply(response))))
                    else:
                        if self.breaker is not None:
                            self.breaker.record_success()
                        succeed(item, _to_reply(response))
                if batch_error is not None:
                    # Every unanswered sub-call shares the round's typed
                    # error: the head of the suffix genuinely failed, the
                    # rest were aborted by pipeline ordering.  The shared
                    # bytes_written annotation keeps the conservative
                    # idempotency rule for all of them.
                    typed = classify_failure(batch_error)
                    for item in pending[len(answered):]:
                        if self.breaker is not None:
                            self.breaker.record_failure()
                        failed.append((item, typed))
            survivors: List[_PendingCall] = []
            pauses: List[float] = []
            for item, error in failed:
                item.meta.faults.append(type(error).__name__)
                if (not policy.may_retry(error, self.idempotent)
                        or item.meta.attempts >= policy.max_attempts):
                    finalize(item, error)
                    continue
                pause = policy.backoff_for(item.meta.attempts)
                if error.retry_after_s is not None:
                    pause = max(pause, error.retry_after_s)
                survivors.append(item)
                pauses.append(pause)
            if not survivors:
                return results
            pause = max(pauses)
            if deadline is not None and clock.now() + pause >= deadline:
                for item in survivors:
                    overrun = DeadlineExceeded(
                        f"backoff of {pause:g}s would overrun the "
                        f"{policy.deadline_s:g}s deadline budget")
                    item.meta.faults.append("DeadlineExceeded")
                    finalize(item, overrun)
                return results
            for item in survivors:
                item.meta.retried = True
                item.meta.backoff_s += pause
            clock.sleep(pause)
            pending = survivors
        return results

    def close(self) -> None:
        self._call_conn.close()
        for pipe in self._pipes:
            pipe.close()
        self._pipes = []


def endpoint_http_handler(endpoint: Endpoint) -> Callable[[Request], Response]:
    """Adapt an endpoint into an :class:`~repro.http11.HttpServer` handler."""

    def handler(request: Request) -> Response:
        if request.method != "POST":
            return Response.text(405, "POST only")
        headers = {name: value for name, value in request.headers}
        reply = endpoint(request.body, request.content_type, headers)
        response = Response(status=reply.status, body=reply.body)
        response.headers.set("Content-Type", reply.content_type)
        for name, value in reply.headers.items():
            response.headers.set(name, value)
        return response

    return handler


def serve_endpoint(endpoint: Endpoint, host: str = "127.0.0.1",
                   port: int = 0, **server_kwargs) -> HttpServer:
    """Start an HTTP server exposing ``endpoint`` at every path."""
    return HttpServer(endpoint_http_handler(endpoint), host=host, port=port,
                      **server_kwargs)
