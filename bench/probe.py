"""A fixed piece of pure-Python work, timed in a helper process.

    python3 bench/probe.py

reads one line per probe from stdin and answers each with the seconds
the work took.  It runs in its own process so that the heap and the
garbage the program under test leaves behind cannot change its time;
its time follows only the host's speed.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction, dict and sort work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
        table[(i % 37, i)] = acc
    sorted(table.items(), key=lambda kv: (kv[0][0], -kv[0][1]))
    return time.perf_counter() - start


def main() -> int:
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
