"""Machine-speed probe, started as a child process by ``run.py``.

For every line read from stdin it times, twice, a fixed piece of
benchmark-owned work (the input generator's planarity and primality
checks on a fixed set of diagrams, no library code) and writes the
faster reading to stdout.  It runs in an interpreter of its own, so the
heap and the state that the library under test builds in the benchmark
process do not change its readings.

    python3 bench/calib.py DIAGRAMS
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import inputs  # noqa: E402


def main() -> None:
    rows = inputs.table_small(0, int(sys.argv[1]))
    gc.collect()
    gc.freeze()
    for _ in sys.stdin:
        # The first repeat pays for waking an idle process; report the
        # faster of two.
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            for r in rows:
                inputs.is_planar_connected(r)
                inputs.is_prime_rows(r)
            times.append(time.perf_counter() - t0)
        print(min(times), flush=True)


if __name__ == "__main__":
    main()
