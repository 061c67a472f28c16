"""Minimal HTTP/1.1 stack: the transport SOAP rides on.

Request/response model with case-insensitive headers; one sans-IO
parser pair (:class:`RequestParser`/:class:`ResponseParser`) for all
framing; two server cores over it — an event-driven selector reactor
(default) and the thread-per-connection server — and one client
connection, serial or pipelined::

    from repro.http11 import HttpServer, HttpConnection, Response

    with HttpServer(lambda req: Response(body=b"pong")) as server:
        with HttpConnection(server.address) as conn:
            assert conn.get("/").body == b"pong"

``HttpConnection(address, depth=k).request_many(requests)`` keeps up to
``k`` requests on the wire.

``HttpServer(...)`` is a factory: ``concurrency="reactor"`` (default,
overridable via the ``REPRO_HTTP_CONCURRENCY`` env var) builds a
:class:`ReactorHttpServer`, ``concurrency="threaded"`` the original
:class:`ThreadedHttpServer`.  Both expose the identical surface and run
the same test suite.
"""

from .client import (HttpConnection, HttpConnectionPool, PipelineError,
                     default_pool, parse_address)
from .errors import (HttpConnectionClosed, HttpError, HttpParseError,
                     HttpTooLarge)
from .messages import (MAX_BODY_BYTES, MAX_HEADER_BYTES, Headers, LineReader,
                       Request, RequestParser, Response, ResponseParser,
                       etag_matches, read_request, read_response)
from .reactor import ReactorHttpServer
from .server import (CONCURRENCY_ENV, HttpServer, ThreadedHttpServer,
                     default_concurrency, set_reuse_port,
                     supports_reuse_port)

__all__ = [
    "HttpError", "HttpParseError", "HttpConnectionClosed", "HttpTooLarge",
    "Headers", "Request", "Response", "LineReader", "read_request",
    "read_response", "RequestParser", "ResponseParser", "etag_matches",
    "MAX_HEADER_BYTES", "MAX_BODY_BYTES",
    "HttpServer", "ThreadedHttpServer", "ReactorHttpServer",
    "default_concurrency", "CONCURRENCY_ENV",
    "set_reuse_port", "supports_reuse_port",
    "HttpConnection", "HttpConnectionPool", "default_pool", "parse_address",
    "PipelineError",
]
