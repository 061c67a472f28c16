"""Out-of-process SOAP-binQ call benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Starts the SOAP-binQ server in a process
of its own, drives it closed-loop from this one with one client thread,
checks every reply against its request, and prints each metric by name
and unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate traced run.  Exits non-zero, without that line, when
the program under test is missing or a run cannot finish, and with 1
after it when any reply was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    notes = result.pop("notes")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}")
    for name, value in notes.items():
        print(f"  {name:30s} {value:14.6f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
