"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

import harness
from spans import SERVER_SPANS, Tracer, instrument_client, instrument_server
from workloads import WORKLOADS

ROOT = os.path.dirname(harness.HERE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_values_are_a_function_of_the_seed(name):
    make = WORKLOADS[name].make_values
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_bulk_values_encode_to_the_same_size_for_every_seed():
    # each value is a shuffle of one multiset, so the varint sizes match
    for seed in (1, 2):
        for value in WORKLOADS["bulk_int_rpc"].make_values(seed):
            assert sorted(value["payload"]) == sorted(
                k % 100 for k in range(4096))


def test_self_time_is_duration_minus_children():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.bind("c1")
    outer = tracer.begin("outer")          # t=0
    inner = tracer.begin("inner")          # t=10
    tracer.end(inner)                      # t=20
    tracer.end(outer)                      # t=30
    assert (outer.duration_ns, outer.self_ns) == (30, 20)
    assert tracer.per_call() == {"c1": {"outer": [20, 30],
                                        "inner": [10, 10]}}


def test_spans_recorded_before_the_id_are_attributed_on_bind():
    tracer = Tracer()
    tracer.unbind()
    early = tracer.begin("serving.admission_wait")
    tracer.end(early)
    tracer.bind("c9")
    assert early.call_id == "c9"


def _owners():
    import repro.core.xmlq as xmlq
    from repro.core import QualityManager, SoapBinClient, XmlQualityClient
    from repro.http11 import RequestParser, Response
    from repro.pbio import PbioSession
    from repro.serving import AdmissionController, LoadQualityCoupling
    from repro.soap.service import SoapService
    from repro.transport import HttpChannel
    return [xmlq, QualityManager, SoapBinClient, XmlQualityClient,
            RequestParser, Response, PbioSession, AdmissionController,
            LoadQualityCoupling, SoapService, HttpChannel]


def test_restore_puts_every_original_back():
    before = [dict(vars(owner)) for owner in _owners()]
    tracer = Tracer()
    instrument_client(tracer)
    instrument_server(tracer, lambda *args: None)
    changed = [owner for owner, old in zip(_owners(), before)
               if dict(vars(owner)) != old]
    assert len(changed) >= 10
    tracer.restore()
    for owner, old in zip(_owners(), before):
        assert dict(vars(owner)) == old, owner


def _replies(name, traced, calls=12):
    """Reply bodies of ``calls`` sequential calls from one client."""
    workload = WORKLOADS[name]
    values = workload.make_values(3)
    tracer = Tracer() if traced else None
    if traced:
        instrument_client(tracer)
    try:
        dep = harness.deploy(workload, values, traced=traced, tracer=tracer)
        try:
            bodies = []
            driver = dep.drivers[0]
            bodies.append(dep.callers[0].channel.last_reply.body)
            for _ in range(calls):
                assert driver.call_once().outcome == harness.OK
                bodies.append(dep.callers[0].channel.last_reply.body)
        finally:
            final = dep.close()
    finally:
        if tracer is not None:
            tracer.restore()
    if traced:
        assert final["spans"], "the traced server recorded no call"
    return bodies


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_reply_byte(name):
    assert _replies(name, traced=False) == _replies(name, traced=True)


def test_ledger_of_synthetic_spans_adds_up():
    client = {"a": {"transport.rtt": [100_000, 100_000],
                    "core.client_call": [5_000, 130_000]}}
    server = {"a": {"http11.parse": [4_000, 4_000],
                    "core.endpoint": [30_000, 50_000],
                    "core.quality": [20_000, 20_000]}}
    out = harness.ledger(client, server, ["a", "never-traced"])
    assert out["transport.rtt_us"] == 100.0
    assert out["http11.residual_us"] == 100.0 - 4.0 - 30.0 - 20.0
    assert out["core.client_self_us"] == 30.0
    assert out["bench.traced_calls"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_ledger_adds_up_to_the_round_trip(monkeypatch, name):
    monkeypatch.setattr(harness, "WARMUP_S", 0.3)
    monkeypatch.setattr(harness, "FLOOR_S", 0.3)
    workload = WORKLOADS[name]
    result = harness.per_layer(workload, workload.make_values(5), 1.0)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    spec = {m["name"] for m in harness.load_spec()["per_layer"]}
    assert spec <= set(metrics)
    server = sum(metrics[f"{name}_us"] for name in SERVER_SPANS)
    assert server > 0 and metrics["http11.residual_us"] > 0
    assert server + metrics["http11.residual_us"] == pytest.approx(
        metrics["transport.rtt_us"], rel=1e-9)
    assert metrics["bench.traced_calls"] >= 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_bin_rpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout



def test_spinners_run_at_idle_priority_and_all_stop():
    with harness.busy_cpus() as procs:
        assert len(procs) == len(os.sched_getaffinity(0))
        for proc in procs:
            deadline = time.monotonic() + 10
            while (os.sched_getscheduler(proc.pid) != os.SCHED_IDLE
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert os.sched_getscheduler(proc.pid) == os.SCHED_IDLE
    assert all(proc.poll() is not None for proc in procs)
