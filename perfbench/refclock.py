"""Times in reference seconds, steady on a machine whose speed drifts.

On a shared machine the speed of one core swings by up to 2x over a few
seconds while other tenants load it, and CPU time swings with it, so raw
timings of the same work spread far wider than any useful bound.  The
benchmark therefore times a fixed pure-Python loop (integer arithmetic,
gcd, tuples and a dict: the kind of work the exact kernel does) right
before and after every measured interval and reports

    seconds = measured * REF_SECONDS / (mean of the two loop times)

i.e. the interval as it would have taken with the loop at its nominal
``REF_SECONDS``.  A slowdown that hits the program and the loop alike
cancels; a change that makes the program itself slower or faster
shows in full.  The loop is part of the benchmark and never changes.
"""

from __future__ import annotations

import time
from math import gcd

# the loop's time on an unloaded core (2-CPU x86-64 machine, Python 3.11)
REF_SECONDS = 0.001


def _loop() -> int:
    acc: dict = {}
    x = 1
    for _ in range(2000):
        x = (x * 1103515245 + 12345) % 2147483648
        g = gcd(x, 360360)
        key = x % 97
        acc[key] = acc.get(key, 0) + (key, x // g, g)[1] % 1000
    return len(acc)


def reference(runs: int = 3) -> float:
    """Seconds the loop takes now: the median of ``runs`` runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[runs // 2]


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` in reference seconds, given the loop times around it."""
    return seconds * 2 * REF_SECONDS / (ref_before + ref_after)
