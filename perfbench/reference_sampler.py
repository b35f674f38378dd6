"""Host-speed samples taken alongside the program while it works.

Usage: ``python reference_sampler.py OUT_PATH``

Every :data:`PERIOD_S` seconds, runs a short fixed pure-Python loop and
appends one line ``<monotonic clock at its middle> <CPU seconds>`` to
``OUT_PATH``, until it is stopped with SIGTERM.  It keeps a few percent
of one CPU busy, so the samples follow the host's speed through the
same seconds the program is measured in.
"""

from __future__ import annotations

import sys
import time

#: Seconds between the starts of two samples.
PERIOD_S = 0.1

#: Iterations of the reference loop (~15 ms of CPU): one ``ref``, the
#: unit the benchmark's CPU times are given in, is its CPU time.
REFERENCE_ITERATIONS = 200_000

#: Iterations of one sample's loop, a quarter of the reference loop.
ITERATIONS = REFERENCE_ITERATIONS // 4


def main() -> int:
    with open(sys.argv[1], "a", encoding="ascii", buffering=1) as out:
        while True:
            started = time.monotonic()
            cpu = time.process_time()
            total = 0
            for value in range(ITERATIONS):
                total += value * value
            cpu = time.process_time() - cpu
            out.write(f"{(started + time.monotonic()) / 2:.6f} {cpu:.9f}\n")
            time.sleep(max(0.0, started + PERIOD_S - time.monotonic()))


if __name__ == "__main__":
    sys.exit(main())
