"""The server under test, in a process of its own.

    python3 perfbench/server.py --workload NAME [--trace]

Builds the workload's quality-managed service behind the default
admission controller, a load-quality coupling and the default HTTP
concurrency model, exactly as the loadgen and extract-serve deployments
do, then prints ``READY <port>``.  Each ``stats`` line on stdin is
answered with one JSON line of server counters.  When stdin closes the
server stops and prints a final JSON line; with ``--trace`` it carries
the per-call span totals.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serving import AdmissionController, LoadQualityCoupling
from repro.transport import serve_endpoint

from spans import Tracer, instrument_server
from workloads import WORKLOADS, build_service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    service = build_service(WORKLOADS[args.workload])
    admission = AdmissionController()
    coupling = LoadQualityCoupling(service.quality, admission)
    tracer = Tracer() if args.trace else None
    endpoint = service.endpoint
    if tracer is not None:
        endpoint = instrument_server(tracer, endpoint)
    server = serve_endpoint(endpoint, admission=admission,
                            load_coupling=coupling,
                            quality_stats=service.quality_stats)

    def stats():
        return {"quality": service.quality_stats()}

    print(f"READY {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(stats()), flush=True)
    finally:
        server.close()
    final = stats()
    if tracer is not None:
        tracer.restore()
        final["spans"] = tracer.per_call()
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
