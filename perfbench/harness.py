"""The generator side of the benchmark: server processes, closed-loop
client threads, the measurement windows and the metrics.

One generator process (this one) runs :data:`CLIENTS` client threads,
each on its own keep-alive connection, against a server in a process of
its own (:mod:`server`), so client and server never share an interpreter
lock.
Closed loop: SOAP RPC callers each block on their reply, so each thread
sends its next call only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.xmlq import parse_message_type_header
from repro.http11 import HttpConnection, LineReader
from repro.soap.envelope import parse_envelope
from repro.transport import Channel, ChannelReply, HttpChannel

import floor
from spans import CALL_HEADER, SERVER_SPANS, Tracer, instrument_client
from workloads import OPERATION, WORKLOADS, Workload, make_client, matches

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: server launches per run; ``setup_s`` is their median
SETUPS = 5
#: client threads.  One: two closed-loop clients queue behind each other
#: on the server's interpreter lock, and that queueing, not the program,
#: sets their latency tail
CLIENTS = 1
#: closed-loop calls before a window opens: lazy set-up and negotiation
#: (compact wire, codec plans) finish here
WARMUP_S = 1.0
FLOOR_S = 2.0
#: windows are cut into slices of this length.  On a shared virtual
#: machine, other guests take CPU from this one in bursts of seconds
#: (``steal``) and slow both processes by tens of percent; the spinners
#: of :func:`busy_cpus` remove most of it.  Metrics are taken from the
#: slices with at most the median steal: rates, CPU per call and p90 as
#: medians over those slices, p50 over their calls, so such bursts move
#: few of them
SLICE_S = 1.0
CHILD_TIMEOUT_S = 60.0

OK, DEGRADED, WRONG, ERROR, SHED = "ok", "degraded", "wrong", "error", "shed"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Child:
    """A benchmark child process speaking lines on stdin/stdout; it
    prints ``READY <port>`` once it serves."""

    def __init__(self, script: str, args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        # measure the default HTTP concurrency model, whatever the
        # calling shell selects
        env.pop("REPRO_HTTP_CONCURRENCY", None)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script)] + args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        ready = self.readline()
        if not ready.startswith("READY "):
            self.kill()
            raise RuntimeError(f"{script} did not start: {ready!r}")
        self.port = int(ready.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def readline(self) -> str:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("child process stopped answering") from None
        if line is None:
            raise RuntimeError(
                f"child process exited with {self.proc.wait()}")
        return line

    def ask(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.readline())

    def close(self) -> Optional[Dict[str, Any]]:
        """Close stdin and wait for the child; returns its last JSON line,
        if it printed one."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
        last = None
        while True:
            try:
                line = self.readline()
            except RuntimeError:
                break
            last = line
        self.kill()
        return json.loads(last) if last else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        self._reader.join(timeout=CHILD_TIMEOUT_S)


@contextlib.contextmanager
def busy_cpus():
    """A :mod:`spin` process per CPU this process may run on, for the
    duration of the block, so that no CPU halts between calls.  Yields
    the processes."""
    procs: List[subprocess.Popen] = []
    try:
        for _ in os.sched_getaffinity(0):
            procs.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "spin.py")],
                stdin=subprocess.DEVNULL))
        yield procs
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


def proc_cpu_s(pid: int) -> float:
    """utime + stime of every thread of ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (the ``steal`` column of ``/proc/stat``)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / _CLK_TCK


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# the client connection
# ----------------------------------------------------------------------

class _CountingSocket:
    def __init__(self, sock: socket.socket, conn: "CountingConnection"):
        self._sock = sock
        self._conn = conn

    def send(self, data) -> int:
        sent = self._sock.send(data)
        self._conn.bytes_out += sent
        return sent

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self._conn.bytes_in += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


class CountingConnection(HttpConnection):
    """An :class:`HttpConnection` that counts the bytes crossing its
    socket in each direction, HTTP headers included."""

    bytes_out = 0
    bytes_in = 0

    def _connect(self) -> None:
        super()._connect()
        self._sock = _CountingSocket(self._sock, self)
        self._reader = LineReader(self._sock.recv)


class BenchChannel(Channel):
    """An :class:`HttpChannel` on a :class:`CountingConnection` that keeps
    the last reply and, in the traced run, sends the call id."""

    def __init__(self, port: int, tracer: Optional[Tracer] = None) -> None:
        self.inner = HttpChannel(("127.0.0.1", port))
        self.connection = CountingConnection(("127.0.0.1", port))
        self.inner.connection = self.connection
        self.tracer = tracer
        self.last_reply: Optional[ChannelReply] = None

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        self.last_reply = None
        if self.tracer is not None:
            headers = dict(headers or {})
            headers[CALL_HEADER] = self.tracer.call_id()
        self.last_reply = self.inner.call(body, content_type, headers)
        return self.last_reply

    def close(self) -> None:
        self.inner.close()


class Caller:
    """One client on its own connection; :meth:`call` makes one verified
    call and classifies its outcome."""

    def __init__(self, workload: Workload, port: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.channel = BenchChannel(port, tracer)
        self.client = make_client(workload, self.channel)
        self.session = getattr(self.client, "session", None)
        self._reply_format: Optional[str] = None
        if self.session is not None:
            unpack = self.session.unpack_stream

            def unpack_stream(blob):
                fmt, value = unpack(blob)
                self._reply_format = fmt.name
                return fmt, value
            self.session.unpack_stream = unpack_stream

    def call(self, value: Dict[str, Any]) -> str:
        fmt = self.workload.request
        try:
            result = self.client.call(OPERATION, value, fmt, fmt)
        except Exception:  # noqa: BLE001 - every failure is counted
            reply = self.channel.last_reply
            return SHED if reply is not None and reply.status == 503 \
                else ERROR
        if matches(value, result):
            return OK
        return DEGRADED if self._degraded() else WRONG

    def _degraded(self) -> bool:
        if self.session is not None:
            name = self._reply_format
        else:
            name = parse_message_type_header(
                parse_envelope(self.channel.last_reply.body))
        return name == self.workload.reply_lite.name

    def close(self) -> None:
        self.channel.close()


@dataclass
class Record:
    end: float
    latency_s: float
    bytes_out: int
    bytes_in: int
    outcome: str
    call_id: str


class Driver(threading.Thread):
    """A closed-loop client thread.  Thread ``i`` of ``n`` sends values
    ``i, i+n, i+2n, ...`` of the pool, cycling."""

    def __init__(self, index: int, caller: Caller,
                 values: List[Dict[str, Any]],
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.index = index
        self.caller = caller
        self.values = values
        self.tracer = tracer
        self.records: List[Record] = []
        self.halt = threading.Event()
        self.error: Optional[BaseException] = None
        self._next = index

    def call_once(self) -> Record:
        value = self.values[self._next % len(self.values)]
        call_id = f"{self.index}.{self._next}"
        self._next += CLIENTS
        if self.tracer is not None:
            self.tracer.bind(call_id)
        conn = self.caller.channel.connection
        out0, in0 = conn.bytes_out, conn.bytes_in
        start = time.perf_counter()
        outcome = self.caller.call(value)
        end = time.perf_counter()
        record = Record(end, end - start, conn.bytes_out - out0,
                        conn.bytes_in - in0, outcome, call_id)
        self.records.append(record)
        return record

    def run(self) -> None:
        try:
            while not self.halt.is_set():
                self.call_once()
        except BaseException as exc:  # noqa: BLE001 - reported by stop()
            self.error = exc

    def stop(self) -> None:
        self.halt.set()
        self.join(timeout=CHILD_TIMEOUT_S)
        if self.is_alive():
            raise RuntimeError(f"{self.name} did not stop")
        if self.error is not None:
            raise self.error


# ----------------------------------------------------------------------
# set-up and measurement
# ----------------------------------------------------------------------

@dataclass
class Deployment:
    server: Child
    callers: List[Caller]
    drivers: List[Driver]
    setup_s: float

    def close(self) -> Optional[Dict[str, Any]]:
        for caller in self.callers:
            caller.close()
        return self.server.close()


def deploy(workload: Workload, values: List[Dict[str, Any]],
           traced: bool = False,
           tracer: Optional[Tracer] = None) -> Deployment:
    """Launch a server and connect the clients.  ``setup_s`` runs from
    the launch until every client has had its first verified reply."""
    start = time.perf_counter()
    args = ["--workload", workload.name] + (["--trace"] if traced else [])
    server = Child("server.py", args)
    callers: List[Caller] = []
    try:
        drivers = []
        for i in range(CLIENTS):
            callers.append(Caller(workload, server.port, tracer))
            drivers.append(Driver(i, callers[-1], values, tracer))
        for driver in drivers:
            outcome = driver.call_once().outcome
            if outcome != OK:
                raise RuntimeError(f"first call of {driver.name}: {outcome}")
    except BaseException:
        for caller in callers:
            caller.close()
        server.kill()
        raise
    return Deployment(server, callers, drivers,
                      time.perf_counter() - start)


@dataclass
class Slice:
    """One :data:`SLICE_S` of a window: its successful calls and the CPU
    both processes spent in it."""
    seconds: float
    ok: List[Record]
    server_cpu_s: float
    client_cpu_s: float
    steal_s: float


@dataclass
class Window:
    records: List[Record]
    #: every record of the run, window or not (the correctness check)
    all_records: List[Record]
    slices: List[Slice]
    server_rss_mib: float
    #: ``snapshot()`` as the window opened and as it closed
    before: Any = None
    after: Any = None

    def ok(self) -> List[Record]:
        return [r for r in self.records if r.outcome == OK]

    def quiet(self) -> List[Slice]:
        """The slices with at most the median steal (at least half of
        them), leaving out slices with fewer than 2 calls."""
        usable = [s for s in self.slices if len(s.ok) >= 2]
        if not usable:
            return []
        limit = statistics.median(s.steal_s for s in usable)
        return [s for s in usable if s.steal_s <= limit]

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)


def measure(dep: Deployment, seconds: float,
            snapshot: Optional[Callable[[], Any]] = None) -> Window:
    """Run the clients closed-loop: :data:`WARMUP_S`, then a window of
    ``seconds`` whose completions are kept, cut into slices.  The
    optional ``snapshot`` is taken as the window opens and closes."""
    marks = []

    def mark():
        marks.append((time.perf_counter(), proc_cpu_s(dep.server.pid),
                      self_cpu_s(), steal_s()))

    for driver in dep.drivers:
        driver.start()
    try:
        time.sleep(WARMUP_S)
        before = snapshot() if snapshot else None
        mark()
        count = max(1, round(seconds / SLICE_S))
        for i in range(1, count + 1):
            time.sleep(max(0.0, marks[0][0] + i * seconds / count
                           - time.perf_counter()))
            mark()
        rss = proc_peak_rss_mib(dep.server.pid)
        after = snapshot() if snapshot else None
    finally:
        for driver in dep.drivers:
            driver.halt.set()
        for driver in dep.drivers:
            driver.stop()
    every = [r for d in dep.drivers for r in d.records]
    slices = [Slice(t1 - t0, [r for r in every
                              if r.outcome == OK and t0 <= r.end < t1],
                    cpu1 - cpu0, self1 - self0, steal1 - steal0)
              for (t0, cpu0, self0, steal0), (t1, cpu1, self1, steal1)
              in zip(marks, marks[1:])]
    t0, t1 = marks[0][0], marks[-1][0]
    return Window([r for r in every if t0 <= r.end < t1], every, slices,
                  rss, before, after)


def quiet_latencies_s(win: Window) -> List[float]:
    return [r.latency_s for s in win.quiet() for r in s.ok]


def quantile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def _check(windows: List[Window]) -> Dict[str, Any]:
    attempted = sum(len(w.records) for w in windows)
    failed = sum(w.count(o) for w in windows for o in (WRONG, ERROR, SHED))
    wrong = sum(1 for w in windows for r in w.all_records
                if r.outcome == WRONG)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed}


def end_to_end(workload: Workload, values: List[Dict[str, Any]],
               seconds: float) -> Dict[str, Any]:
    """The untraced run: :data:`SETUPS` set-ups, then one window on the
    last deployment."""
    setups: List[float] = []
    dep = None
    for i in range(SETUPS):
        dep = deploy(workload, values)
        setups.append(dep.setup_s)
        if i < SETUPS - 1:
            dep.close()
    try:
        win = measure(dep, seconds)
    finally:
        dep.close()
    ok = win.ok()
    if not ok:
        raise RuntimeError("no call succeeded in the window")
    slices = win.quiet()
    if not slices:
        raise RuntimeError("no slice of the window had 2 calls")
    latencies = quiet_latencies_s(win)
    metrics = {
        "calls_per_s": statistics.median(len(s.ok) / s.seconds
                                         for s in slices),
        "p50_ms": statistics.median(latencies) * 1e3,
        # per slice, then the median: a pooled p90 takes most of its tail
        # from the few slices a burst of steal stalled
        "p90_ms": statistics.median(
            quantile([r.latency_s for r in s.ok], 0.90) for s in slices) * 1e3,
        "ok_share": (len(ok) + win.count(DEGRADED)) / len(win.records),
        "wire_bytes_per_call": sum(r.bytes_out + r.bytes_in
                                   for r in ok) / len(ok),
        "server_cpu_ms_per_call": statistics.median(
            s.server_cpu_s / len(s.ok) for s in slices) * 1e3,
        "client_cpu_ms_per_call": statistics.median(
            s.client_cpu_s / len(s.ok) for s in slices) * 1e3,
        "server_rss_mb": win.server_rss_mib,
        "setup_s": statistics.median(setups),
        "latency_samples": len(latencies),
        "quiet_slices": len(slices),
    }
    out = _check([win])
    metrics["fail_share"] = out["failed"] / out["attempted"]
    out["metrics"] = metrics
    return out


def ledger(client: Dict[str, Dict[str, List[int]]],
           server: Dict[str, Dict[str, List[int]]],
           call_ids: List[str]) -> Dict[str, float]:
    """Mean µs per call of every span, over the calls both sides traced.
    ``http11.residual`` is what the client's ``transport.rtt`` leaves
    after the server spans: socket I/O, the reactor loop, and the
    handoffs between threads."""
    calls = [c for c in call_ids if c in server
             and "transport.rtt" in client.get(c, {})]
    if not calls:
        raise RuntimeError("no call was traced on both sides")
    n = len(calls)

    def mean_us(side, name, which=0):
        return sum(side[c].get(name, (0, 0))[which] for c in calls) / n / 1e3

    out = {f"{name}_us": mean_us(server, name) for name in SERVER_SPANS}
    rtt = mean_us(client, "transport.rtt", 1)
    out["transport.rtt_us"] = rtt
    out["http11.residual_us"] = rtt - sum(out[f"{name}_us"]
                                          for name in SERVER_SPANS)
    out["core.client_self_us"] = mean_us(client, "core.client_call", 1) - rtt
    out["pbio.client_pack_us"] = mean_us(client, "pbio.client_pack")
    out["pbio.client_unpack_us"] = mean_us(client, "pbio.client_unpack")
    out["bench.traced_calls"] = n
    return out


def per_layer(workload: Workload, values: List[Dict[str, Any]],
              seconds: float) -> Dict[str, Any]:
    """The traced run: an untraced window for the overhead base and a
    traced window, ``seconds / 2`` each, then the socket floor at the
    traced calls' sizes."""
    dep = deploy(workload, values)
    try:
        plain = measure(dep, seconds / 2)
    finally:
        dep.close()

    tracer = Tracer()
    instrument_client(tracer)
    try:
        dep = deploy(workload, values, traced=True, tracer=tracer)
        sessions = [c.session.stats for c in dep.callers
                    if c.session is not None]

        def snapshot():
            cache = dep.server.ask("stats")["quality"]["cache"]
            return (cache["hits"], cache["misses"],
                    sum(s.compact_sent + s.compact_received
                        for s in sessions),
                    sum(s.messages_sent + s.messages_received
                        for s in sessions))
        try:
            traced = measure(dep, seconds / 2, snapshot)
        finally:
            final = dep.close()
    finally:
        tracer.restore()
    if final is None or "spans" not in final:
        raise RuntimeError("the traced server printed no spans")
    ok = traced.ok()
    if not ok or not plain.ok():
        raise RuntimeError("no call succeeded in a window")
    out = ledger(tracer.per_call(), final["spans"], [r.call_id for r in ok])

    req = round(sum(r.bytes_out for r in ok) / len(ok))
    resp = round(sum(r.bytes_in for r in ok) / len(ok))
    echo = Child("floor.py", [str(req), str(resp)])
    try:
        rtts = floor.measure(echo.port, req, resp, CLIENTS, FLOOR_S)
    finally:
        echo.close()
    if not rtts:
        raise RuntimeError("the socket floor made no round trip")
    floor_us = statistics.fmean(rtts) * 1e6
    out["transport.socket_floor_us"] = floor_us
    out["transport.rtt_over_floor"] = out["transport.rtt_us"] / floor_us

    out["serving.shed"] = traced.count(SHED)
    hits, misses, compact, data = (
        a - b for a, b in zip(traced.after, traced.before))
    out["core.cache_hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    out["core.cache_lookups_per_call"] = (hits + misses) / len(ok)
    out["core.degraded_share"] = traced.count(DEGRADED) / len(traced.records)
    out["pbio.compact_share"] = compact / data if data else 0.0
    p50 = statistics.median(quiet_latencies_s(plain))
    out["bench.trace_overhead_share"] = (
        statistics.median(quiet_latencies_s(traced)) - p50) / p50

    result = _check([plain, traced])
    result["metrics"] = out
    return result


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def load_spec() -> Dict[str, Any]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """One benchmark run.  Returns the check fields, ``metrics`` (every
    metric BENCHMARK.json lists for this kind of run, with its unit) and
    ``notes`` (sample counts and other context, not metrics)."""
    workload = WORKLOADS[workload_name]
    values = workload.make_values(seed)
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    with busy_cpus():
        raw = (per_layer if trace else end_to_end)(workload, values, seconds)
    measured = raw.pop("metrics")
    raw["metrics"] = {entry["name"]: {"value": measured.pop(entry["name"]),
                                      "unit": entry["unit"]}
                      for entry in spec}
    raw["notes"] = measured
    return raw
