"""Bare TCP echo server: the socket floor a SOAP-binQ call is compared to.

    python3 perfbench/floor.py REQUEST_BYTES RESPONSE_BYTES

Prints ``READY <port>``; on every connection reads REQUEST_BYTES and
answers RESPONSE_BYTES, over and over, with no framing or parsing, until
stdin closes.  :func:`measure` is the client side.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import List


def _recv_exact(sock: socket.socket, buf: bytearray) -> bool:
    view = memoryview(buf)
    got = 0
    while got < len(buf):
        n = sock.recv_into(view[got:])
        if n == 0:
            return False
        got += n
    return True


def _serve(conn: socket.socket, request_bytes: int, reply: bytes) -> None:
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buf = bytearray(request_bytes)
    with conn:
        while _recv_exact(conn, buf):
            conn.sendall(reply)


def serve(request_bytes: int, response_bytes: int) -> None:
    listener = socket.create_server(("127.0.0.1", 0))
    reply = b"r" * response_bytes

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=_serve, args=(conn, request_bytes, reply),
                             daemon=True).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    print(f"READY {listener.getsockname()[1]}", flush=True)
    sys.stdin.read()
    listener.close()


def measure(port: int, request_bytes: int, response_bytes: int,
            clients: int, seconds: float) -> List[float]:
    """Closed-loop echo round trips (seconds) from ``clients`` threads,
    each on its own connection, for ``seconds``."""
    payload = b"q" * request_bytes
    samples: List[List[float]] = [[] for _ in range(clients)]
    stop = threading.Event()

    def drive(out: List[float]) -> None:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buf = bytearray(response_bytes)
            while not stop.is_set():
                start = time.perf_counter()
                sock.sendall(payload)
                if not _recv_exact(sock, buf):
                    raise ConnectionError("floor server closed")
                out.append(time.perf_counter() - start)

    threads = [threading.Thread(target=drive, args=(out,))
               for out in samples]
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    return [s for out in samples for s in out]


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
