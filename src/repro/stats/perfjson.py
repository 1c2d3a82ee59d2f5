"""The host-speed yardstick for performance measurements.

:func:`host_calibration` times a fixed pure-Python workload.  The repo
benchmark (``bench/run.py``) records it next to every run, so wall times
taken on machines of different speed, or on one machine under changing
load, can be put on one scale.
"""

from __future__ import annotations

import time

__all__ = ["host_calibration"]


def host_calibration(runs: int = 5) -> float:
    """Wall seconds for a fixed allocation-and-arithmetic Python workload
    (best of *runs*)."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        acc = 0
        d = {}
        for i in range(200_000):
            acc += (i * 3) ^ (i >> 2)
            if i & 1023 == 0:
                d[i] = acc
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best
