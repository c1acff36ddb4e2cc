"""Calibration loop of the benchmark: times a fixed amount of work on request.

    python3 perfbench/calibrator.py

Each line read from stdin runs the work once and writes its time in seconds
as one line to stdout; the process ends at end of input.  run.py keeps one
running beside its calls, pinned to the same CPU, so that its times track the
host's speed while the calls run.  It is a process of its own because its data
would otherwise raise the client's peak RSS, which every child process
spawned by the client inherits in its ru_maxrss.

The work is of the two kinds the program's time goes to, on data of the same
size: bisecting rows of cumulative ~100-bit counts in a 911-row triangular
table (the exact sampler), and sweeping row updates over an 860 x 2501 float
array (the box sweep of tv at n=2500).  It is the benchmark's own code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import itertools
import random
import sys
import time

import numpy as np


def main() -> int:
    rng = random.Random(0)
    rows = [list(itertools.accumulate((rng.getrandbits(100) for _ in range(v)), initial=0))
            for v in range(911)]
    grid = np.ones((860, 2501))

    def work() -> float:
        t0 = time.perf_counter()
        x = 12345
        for _ in range(60_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row = rows[x % 910 + 1]
            bisect.bisect_right(row, (x * row[-1]) >> 31)
        for _ in range(5):
            for a in range(1, len(grid)):
                row = grid[a - 1].copy()
                row[a:] += grid[a, :grid.shape[1] - a]
                row *= 0.5
                grid[a] = row
        return time.perf_counter() - t0

    work()  # warm-up
    for _ in sys.stdin:
        print(repr(work()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
