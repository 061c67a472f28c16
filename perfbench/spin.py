"""Keeps one CPU busy at the lowest scheduling priority.

    python3 perfbench/spin.py

Runs a busy loop under ``SCHED_IDLE``.  Any other runnable thread
preempts it at once, so it takes no CPU the benchmark's processes want,
but the CPU it runs on never goes idle.  On a virtual machine an idle
virtual CPU halts, and waking it waits for the host's scheduler: on a
shared host that wait is counted as steal and stalls the call in flight
by milliseconds.  Exits when its parent process is gone.
"""

from __future__ import annotations

import os


def main() -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    main()
