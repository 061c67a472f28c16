"""HTTP/1.1 pipelining: server-side ordering, the pipelined client, and
the concurrency-mode factory — run against both server cores."""

import socket
import threading
import time

import pytest

from repro.http11 import (HttpConnection, HttpServer, PipelineError,
                          ReactorHttpServer, Request, Response,
                          ThreadedHttpServer, default_concurrency,
                          CONCURRENCY_ENV)


def echo_handler(request):
    return Response(body=b"echo:" + request.body)


@pytest.fixture(params=["threaded", "reactor"])
def mode(request):
    return request.param


class TestFactory:
    def test_factory_builds_the_requested_core(self):
        with HttpServer(echo_handler, concurrency="threaded") as server:
            assert isinstance(server, ThreadedHttpServer)
        with HttpServer(echo_handler, concurrency="reactor") as server:
            assert isinstance(server, ReactorHttpServer)

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError, match="concurrency"):
            HttpServer(echo_handler, concurrency="fibers")

    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(CONCURRENCY_ENV, "threaded")
        assert default_concurrency() == "threaded"
        monkeypatch.setenv(CONCURRENCY_ENV, "reactor")
        assert default_concurrency() == "reactor"
        monkeypatch.setenv(CONCURRENCY_ENV, "  Reactor ")
        assert default_concurrency() == "reactor"   # normalized
        monkeypatch.setenv(CONCURRENCY_ENV, "")
        assert default_concurrency() == "reactor"   # unset-equivalent

    def test_unrecognized_env_value_raises_naming_choices(self,
                                                          monkeypatch):
        # A typo'd env var must fail loudly, not silently serve on the
        # default core: name the bad value and the valid choices.
        monkeypatch.setenv(CONCURRENCY_ENV, "bogus")
        with pytest.raises(ValueError) as excinfo:
            default_concurrency()
        message = str(excinfo.value)
        assert "bogus" in message
        assert "reactor" in message and "threaded" in message
        assert CONCURRENCY_ENV in message
        monkeypatch.setenv(CONCURRENCY_ENV, "bogus")
        with pytest.raises(ValueError):
            HttpServer(echo_handler)     # the factory path raises too


class TestServerSidePipelining:
    def test_raw_pipelined_burst_answers_in_order(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            burst = b"".join(
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n%02d" % i
                for i in range(10))
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while data.count(b"echo:") < 10:
                    chunk = raw.recv(65536)
                    assert chunk, f"connection closed early: {data!r}"
                    data += chunk
            bodies = [data[i + 5:i + 7] for i in range(len(data))
                      if data[i:i + 5] == b"echo:"]
            assert bodies == [b"%02d" % i for i in range(10)]
            assert server.requests_served == 10

    def test_slow_first_request_does_not_reorder(self, mode):
        # request 0 is slow, request 1 fast: responses must still arrive
        # 0 then 1 (pipelined responses are strictly ordered)
        def handler(request):
            if request.body == b"slow":
                time.sleep(0.2)
            return Response(body=b"done:" + request.body)

        with HttpServer(handler, concurrency=mode) as server:
            burst = (b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nslow"
                     b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nfast")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while data.count(b"done:") < 2:
                    data += raw.recv(65536)
            assert data.index(b"done:slow") < data.index(b"done:fast")

    def test_connection_close_aborts_the_pipeline(self, mode):
        # requests queued after a Connection: close request are not
        # processed (RFC 9112); the connection closes after its response
        served_bodies = []

        def handler(request):
            served_bodies.append(request.body)
            return Response(body=b"ok")

        with HttpServer(handler, concurrency=mode) as server:
            burst = (b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n"
                     b"Connection: close\r\n\r\nA"
                     b"POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nB")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert data.count(b"HTTP/1.1 200") == 1
            time.sleep(0.05)
            assert served_bodies == [b"A"]


class TestPipelinedClient:
    def test_depth_one_is_plain_serial(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=1) as pipe:
                for i in range(5):
                    response = pipe.post("/", b"%d" % i, "text/plain")
                    assert response.body == b"echo:%d" % i
                assert pipe.requests_sent == 5

    def test_batch_results_in_request_order(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=8) as pipe:
                requests = [Request(method="POST", target="/",
                                    body=b"%03d" % i) for i in range(64)]
                responses = pipe.request_many(requests)
                assert [r.body for r in responses] == \
                    [b"echo:%03d" % i for i in range(64)]

    def test_connection_persists_across_batches(self, mode):
        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address, depth=4) as pipe:
                for _ in range(3):
                    pipe.request_many([
                        Request(method="POST", target="/", body=b"x")
                        for _ in range(4)])
            time.sleep(0.05)
            assert server.connections_accepted == 1

    def test_pipeline_error_carries_completed_prefix(self):
        # handler closes the server after two responses: the client gets
        # the prefix plus a typed error naming the first unanswered index
        lock = threading.Lock()
        state = {"served": 0}

        def handler(request):
            with lock:
                state["served"] += 1
            if state["served"] == 2:
                response = Response(body=b"last")
                response.headers.set("Connection", "close")
                return response
            return Response(body=b"ok")

        with HttpServer(handler, concurrency="reactor") as server:
            with HttpConnection(server.address, depth=8) as pipe:
                requests = [Request(method="POST", target="/", body=b"x")
                            for _ in range(6)]
                with pytest.raises(PipelineError) as excinfo:
                    pipe.request_many(requests)
                error = excinfo.value
                assert len(error.responses) == 2
                assert error.failed_index == 2

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            HttpConnection(("127.0.0.1", 1), depth=0)


class TestHealthOnBothModes:
    def test_healthz_json_shape(self, mode):
        import json

        with HttpServer(echo_handler, concurrency=mode) as server:
            with HttpConnection(server.address) as pipe:
                payload = json.loads(pipe.get("/healthz").body)
        assert payload["state"] == "ready"
        assert set(payload) >= {"connections_active", "requests_served",
                                "requests_shed", "active", "queued",
                                "utilization", "p95_service_s"}
