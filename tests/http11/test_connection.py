"""One client connection, two paths: the blocking ``request()`` and the
pipelined ``request_many()`` share a socket and a response parser, and
each resends on a stale keep-alive socket only when no byte was
written."""

import socket
import threading

import pytest

from repro.http11 import (HttpConnection, HttpConnectionClosed, HttpServer,
                          PipelineError, Request, Response)


def echo_handler(request):
    return Response(body=b"echo:" + request.body)


@pytest.fixture(params=["threaded", "reactor"])
def mode(request):
    return request.param


def batch(tag: bytes, n: int = 4):
    return [Request(method="POST", target="/", body=tag + b"%d" % i)
            for i in range(n)]


class TestPathsShareOneConnection:
    def test_request_many_then_request(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=4) as conn:
                bodies = [r.body for r in conn.request_many(batch(b"a"))]
                assert bodies == [b"echo:a%d" % i for i in range(4)]
                # the pump left the socket in blocking-with-timeout mode
                assert conn._sock.gettimeout() == conn.timeout
                assert conn.post("/", b"b", "text/plain").body == b"echo:b"
                assert conn.requests_sent == 5
            assert server.connections_accepted == 1

    def test_request_then_request_many(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=4) as conn:
                assert conn.post("/", b"b", "text/plain").body == b"echo:b"
                bodies = [r.body for r in conn.request_many(batch(b"a"))]
                assert bodies == [b"echo:a%d" % i for i in range(4)]
                assert conn.get("/").body == b"echo:"
            assert server.connections_accepted == 1


class TestStaleSocketResend:
    """A keep-alive socket whose write fails before any byte leaves is
    resent on a fresh connection; once bytes were written, never."""

    @pytest.mark.parametrize("path", ["request", "request_many"])
    def test_resent_when_nothing_was_written(self, mode, path):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=4) as conn:
                conn.get("/")
                # our write side is gone: the next send fails at byte 0
                conn._sock.shutdown(socket.SHUT_WR)
                if path == "request":
                    assert conn.post("/", b"x", "t/p").body == b"echo:x"
                else:
                    responses = conn.request_many(batch(b"x"))
                    assert [r.body for r in responses] == \
                        [b"echo:x%d" % i for i in range(4)]
            assert server.connections_accepted == 2

    @pytest.mark.parametrize("path", ["request", "request_many"])
    def test_not_resent_after_bytes_were_written(self, path):
        # a peer that reads the request and hangs up without answering
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def serve():
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                accepted.append(sock)
                sock.recv(65536)
                sock.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with HttpConnection(listener.getsockname(), depth=4,
                                timeout=5.0) as conn:
                if path == "request":
                    with pytest.raises(HttpConnectionClosed) as excinfo:
                        conn.post("/", b"x", "t/p")
                else:
                    with pytest.raises(PipelineError) as excinfo:
                        conn.request_many(batch(b"x"))
                    assert excinfo.value.responses == []
                assert excinfo.value.bytes_written is True
        finally:
            listener.shutdown(socket.SHUT_RDWR)     # wakes accept()
            listener.close()
            thread.join(timeout=5.0)
        assert len(accepted) == 1
