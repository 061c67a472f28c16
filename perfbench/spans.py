"""Spans for the traced run, recorded from outside the program.

A :class:`Tracer` replaces public functions of ``http11``, ``serving``,
``core``, ``pbio``, ``soap`` and ``transport`` with wrappers that stamp
``perf_counter_ns`` on entry and exit, keeps every span in memory and
puts the originals back on :meth:`Tracer.restore`.  Nothing under
``src/`` knows it is being traced.

Spans of one call share a call id.  The client binds it before each call
and the benchmark's channel sends it in the :data:`CALL_HEADER` request
header.  On the server the id is known only once the request is parsed
or reaches the endpoint, so spans recorded before that are held and
attributed when the id arrives:

* parser spans (``feed``, ``next_request``) are held per parser, that
  is per connection, until ``next_request`` returns a request;
* a worker thread's spans are held from ``AdmissionController.acquire``,
  where the server starts each request, until the endpoint binds the id;
  ``release`` and ``observe`` follow the endpoint on the same thread;
* ``Response.to_bytes`` runs on the reactor thread and finds its id
  through the reply body object the endpoint returned.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

#: request header carrying the call id from the client to the server
CALL_HEADER = "X-Bench-Call"

#: server spans; their self times plus ``http11.residual`` make up the
#: client's ``transport.rtt``
SERVER_SPANS = (
    "http11.parse", "http11.serialize",
    "serving.admission_wait", "serving.admission_release",
    "serving.coupling_observe",
    "core.endpoint", "core.quality",
    "pbio.server_unpack", "pbio.server_pack",
    "soap.server_decode", "soap.server_encode",
)


class Span:
    __slots__ = ("name", "call_id", "start", "end", "parent", "child_ns")

    def __init__(self, name: str, call_id: Optional[str],
                 parent: Optional["Span"]) -> None:
        self.name = name
        self.call_id = call_id
        self.parent = parent
        self.start = self.end = 0
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        #: (owner, attribute, original from owner.__dict__ or None)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # per-thread call context
    # ------------------------------------------------------------------
    def _ctx(self):
        ctx = self._local
        if not hasattr(ctx, "stack"):
            ctx.stack, ctx.call_id, ctx.held = [], None, []
        return ctx

    def bind(self, call_id: Optional[str]) -> None:
        """Attribute this thread's spans to ``call_id``, including those
        it recorded before the id was known."""
        ctx = self._ctx()
        ctx.call_id = call_id
        for span in ctx.held:
            span.call_id = call_id
        ctx.held = []

    def unbind(self) -> None:
        """This thread starts a new call whose id is not yet known."""
        ctx = self._ctx()
        ctx.call_id = None
        ctx.held = []

    def call_id(self) -> Optional[str]:
        return self._ctx().call_id

    def begin(self, name: str) -> Span:
        ctx = self._ctx()
        span = Span(name, ctx.call_id, ctx.stack[-1] if ctx.stack else None)
        ctx.stack.append(span)
        span.start = self.clock()
        return span

    def end(self, span: Span, held: Optional[list] = None) -> None:
        """Close ``span``.  Without an id yet it waits in ``held`` (the
        thread's own list by default) for the id to be assigned."""
        span.end = self.clock()
        ctx = self._ctx()
        ctx.stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        if span.call_id is None:
            (ctx.held if held is None else held).append(span)
        self.spans.append(span)

    def timed(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr`` to ``wrapper(current)``; undone by
        :meth:`restore`, which also removes an attribute the owner only
        inherited."""
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def patch_timed(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda fn: self.timed(name, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def per_call(self) -> Dict[str, Dict[str, List[int]]]:
        """``{call_id: {span name: [self ns, duration ns]}}`` over the
        spans that found their call."""
        out: Dict[str, Dict[str, List[int]]] = {}
        for span in self.spans:
            if span.call_id is None:
                continue
            slot = out.setdefault(span.call_id, {}).setdefault(
                span.name, [0, 0])
            slot[0] += span.self_ns
            slot[1] += span.duration_ns
        return out


def header(headers: Dict[str, str], name: str) -> Optional[str]:
    lower = name.lower()
    for key, value in headers.items():
        if key.lower() == lower:
            return value
    return None


def instrument_client(tracer: Tracer) -> None:
    """Client spans: the whole call, its HTTP exchange and its codec."""
    from repro.core import SoapBinClient, XmlQualityClient
    from repro.pbio import PbioSession
    from repro.transport import HttpChannel
    tracer.patch_timed(SoapBinClient, "call", "core.client_call")
    tracer.patch_timed(XmlQualityClient, "call", "core.client_call")
    tracer.patch_timed(HttpChannel, "call", "transport.rtt")
    tracer.patch_timed(PbioSession, "pack_bytes", "pbio.client_pack")
    tracer.patch_timed(PbioSession, "unpack_stream", "pbio.client_unpack")


def instrument_server(tracer: Tracer,
                      endpoint: Callable) -> Callable:
    """Install the server spans; returns the traced endpoint to hand to
    ``serve_endpoint`` in place of ``endpoint``."""
    import repro.core.xmlq as xmlq
    from repro.core import QualityManager
    from repro.http11 import RequestParser, Response
    from repro.pbio import PbioSession
    from repro.serving import AdmissionController, LoadQualityCoupling
    from repro.soap.service import SoapService

    # per parser: spans waiting for their request, and the id of the
    # request it has just returned (its trailing empty polls belong to it)
    parsers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    # id(reply body) -> call ids, for Response.to_bytes
    bodies: Dict[int, collections.deque] = {}
    bodies_lock = threading.Lock()

    def parser_state(parser) -> list:
        state = parsers.get(parser)
        if state is None:
            state = parsers[parser] = [[], None]
        return state

    def feed(fn):
        @functools.wraps(fn)
        def traced(parser, data):
            state = parser_state(parser)
            state[1] = None
            span = tracer.begin("http11.parse")
            span.call_id = None
            try:
                return fn(parser, data)
            finally:
                tracer.end(span, held=state[0])
        return traced

    def next_request(fn):
        @functools.wraps(fn)
        def traced(parser):
            state = parser_state(parser)
            span = tracer.begin("http11.parse")
            span.call_id = state[1]
            request = None
            try:
                request = fn(parser)
                return request
            finally:
                tracer.end(span, held=state[0])
                if request is not None:
                    call_id = request.headers.get(CALL_HEADER)
                    for held in state[0]:
                        held.call_id = call_id
                    state[0].clear()
                    state[1] = call_id
        return traced

    def acquire(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.unbind()
            span = tracer.begin("serving.admission_wait")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return traced

    def to_bytes(fn):
        @functools.wraps(fn)
        def traced(response):
            with bodies_lock:
                ids = bodies.get(id(response.body))
                call_id = ids.popleft() if ids else None
                if ids is not None and not ids:
                    del bodies[id(response.body)]
            span = tracer.begin("http11.serialize")
            span.call_id = call_id
            try:
                return fn(response)
            finally:
                tracer.end(span, held=[])
        return traced

    tracer.patch(RequestParser, "feed", feed)
    tracer.patch(RequestParser, "next_request", next_request)
    tracer.patch(Response, "to_bytes", to_bytes)
    tracer.patch(AdmissionController, "acquire", acquire)
    tracer.patch_timed(AdmissionController, "release",
                       "serving.admission_release")
    tracer.patch_timed(LoadQualityCoupling, "observe",
                       "serving.coupling_observe")
    tracer.patch_timed(QualityManager, "outgoing_keyed", "core.quality")
    tracer.patch_timed(PbioSession, "unpack_stream", "pbio.server_unpack")
    tracer.patch_timed(PbioSession, "pack_bytes", "pbio.server_pack")
    tracer.patch_timed(PbioSession, "send_cached", "pbio.server_pack")
    tracer.patch_timed(SoapService, "decode_request", "soap.server_decode")
    tracer.patch_timed(xmlq, "encode_quality_response", "soap.server_encode")

    def traced_endpoint(body, content_type, headers):
        call_id = header(headers, CALL_HEADER)
        tracer.bind(call_id)
        span = tracer.begin("core.endpoint")
        try:
            reply = endpoint(body, content_type, headers)
        finally:
            tracer.end(span)
        with bodies_lock:
            bodies.setdefault(id(reply.body), collections.deque()).append(
                call_id)
        return reply

    return traced_endpoint
