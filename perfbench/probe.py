"""Host-speed probe: a fixed piece of work, timed each time it is asked for.

    python3 perfbench/probe.py

Reads a line from standard input, runs the probe once and writes its wall
time in seconds as a line to standard output; exits at end of input.

The host's speed drifts by up to 1.7x for seconds to minutes, as other tenants
load it. run.py times this probe before and after every timed CLI run and
divides the run's wall time by the probe time around it. The probe is the
benchmark's own code, never the program's, so a change to the program moves
only the numerator. Like the CLI, it parses receipt-like CSV lines (csv,
Decimal, datetime) and runs numpy Lloyd iterations; with both parts, the
ratio followed the drift better than either part alone.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter
from datetime import datetime
from decimal import Decimal

import numpy as np

LINES = [
    f"b{i // 7},c{i % 997},p{i % 311},g{i % 8},{i * 37 % 1000 / 100:.2f},"
    f"{1 + i % 3},2025-0{1 + i % 3}-{1 + i % 28:02d}T{10 + i % 9}:{i % 60:02d}:00"
    for i in range(20_000)
]
POINTS = np.random.default_rng(0).random((20_000, 16))
CENTERS = 9
ITERATIONS = 4


def probe() -> None:
    totals = Counter()
    for row in csv.reader(LINES):
        cents = int(Decimal(row[4]) * 100) * int(row[5])
        totals[row[1], datetime.fromisoformat(row[6]).month] += cents
    centers = POINTS[:CENTERS].copy()
    for _ in range(ITERATIONS):
        dist = ((POINTS[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        labels = dist.argmin(1)
        for k in range(CENTERS):
            if (labels == k).any():
                centers[k] = POINTS[labels == k].mean(0)


def main() -> int:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        probe()
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
