"""A fixed calibration kernel, timed beside the program's operations.

On a shared host other tenants slow the same code by up to about 1.8x for
seconds to minutes at a time, in CPU time as well as in wall time: they
compete for caches and memory bandwidth, not only for the CPU. Timing this
kernel between operations measures how fast the host runs Python at that
moment, and an operation's time divided by the kernel's time nearby is a
cost that such slow-downs largely cancel out of.

The kernel does what the program's hot paths do, in plain Python and
without importing the package: it counts windowed pairs of string tokens in
a dict, then sorts and formats the table as text. Its input is fixed, so no
change to the program or the seed changes its cost.
"""

from __future__ import annotations

import random
from time import perf_counter

_WINDOW = 5
_RNG = random.Random(20_240_917)
_TOKENS = [f"w{_RNG.randrange(6_000):05d}" for _ in range(24_000)]


def kernel() -> int:
    counts: dict[tuple[str, str], int] = {}
    tokens = _TOKENS
    n = len(tokens)
    for i, a in enumerate(tokens):
        for j in range(i + 1, min(n, i + _WINDOW + 1)):
            b = tokens[j]
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    lines = sorted(f"{a}\t{b}\t{c}\n" for (a, b), c in counts.items())
    return len("".join(lines))


def timed_kernel() -> float:
    """Seconds one kernel call takes."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
