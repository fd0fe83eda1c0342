"""Print the perfect-hash scan rate at n = 12-18 keys.

For n keys in k = ceil(lambda n) buckets, lambda = 1 and lambda = 3/2, it
draws five seeded key sets of n identifiers below M = k^4, runs
`perfect_hash_search` on each three times, and prints the median
probe count, seconds and probes per second over those fifteen scans. At
lambda = 1 the scans are long: n = 18 probes some 6 million members, so a
full run takes tens of seconds. At lambda = 3/2 they are short, a few
dozen to a few thousand members, and the rate shows a scan's fixed
cost. Run from anywhere:

    python3 tools/scan_rate.py

It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from globalcert import perfect_hash_search  # noqa: E402

N_RANGE = range(12, 19)
MULTIPLIERS = (Fraction(1), Fraction(3, 2))
KEY_SETS = 5
REPEATS = 3


def row(n: int, k: int, multiplier: Fraction) -> str:
    ell = k**4
    probes, seconds, rates = [], [], []
    for seed in range(KEY_SETS):
        keys = frozenset(random.Random(seed).sample(range(ell), n))
        for _ in range(REPEATS):
            started = time.perf_counter()
            found = perfect_hash_search(keys, k, ell)
            elapsed = time.perf_counter() - started
            probes.append(found.probes)
            seconds.append(elapsed)
            rates.append(found.probes / elapsed)
    return (f"{str(multiplier):>6} {n:>3} {k:>3} {statistics.median(probes):>10.0f} "
            f"{statistics.median(seconds):>8.4f} {statistics.median(rates):>10.0f}")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    # the first scan imports numpy; keep that out of the rows
    perfect_hash_search({0}, 1, 2)
    print(f"{'lambda':>6} {'n':>3} {'k':>3} {'probes':>10} {'s':>8} {'probes/s':>10}")
    for multiplier in MULTIPLIERS:
        for n in N_RANGE:
            print(row(n, math.ceil(multiplier * n), multiplier), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
