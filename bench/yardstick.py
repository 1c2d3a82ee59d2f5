"""A host-speed yardstick that runs beside the measurement.

The containers this benchmark runs in share their processors: the speed of
a core swings by 20-40 % for seconds to minutes at a time, independently
per core and invisibly to the guest (no steal time is reported), so the raw
wall time of one job spreads 15-30 % between runs of the same commit
(measured; see ``bench/README.md``) and no bound could gate it.
Interference only slows things down, and it slows a small fixed loop as
much as it slows the simulator (both are interpreter-bound).  So the
benchmark confines a workload to the one or two processors it needs, and on
each of them a pinned thread runs that loop about a hundred times a second.
Every timed interval is scaled by the mean speed the loops saw *during that
interval* against a fixed reference — the rescaling
``benchmarks/check_regression.py`` applies with ``host_calibration()``, done
per job instead of per session.  Times reported this way are "seconds at
yardstick speed": comparable between runs and commits on one kind of host,
and rescalable between hosts by the ratio of their quiet unit times.

The simulator loses more than the loop does when the host slows a processor:
regressing log(job time) on log(loop speed) over 80-310 jobs per workload
gave slopes of -1.3 to -1.6 with correlations of -0.91 to -0.93 (object-heavy
interpreter code misses caches the loop never leaves), so an interval is
multiplied by speed ** ``SENSITIVITY``.  Against plain multiplication that
took the spread of one job's scaled times from 11-13 % to 7-8 %, and of a
pass's from 5-10 % to 3-8 %.

A sampler costs the code on its processor about 3 % (0.35 ms in every
10 ms), the same on every run.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

__all__ = ["REFERENCE_UNIT_S", "SENSITIVITY", "Yardstick", "confine"]

#: What one unit takes on the reference host (this repo's 2-core container
#: when nothing else runs on the core).
REFERENCE_UNIT_S = 350e-6
#: d log(simulator time) / d log(unit time) under host interference, measured
#: (see above); 1.0 would mean the simulator slows exactly as the loop does.
SENSITIVITY = 1.5


def _unit() -> int:
    # one fiftieth of the loop of repro.stats.perfjson.host_calibration()
    acc = 0
    for i in range(4000):
        acc += (i * 3) ^ (i >> 2)
    return acc


def confine(count: int) -> "list[int]":
    """Restrict this process, and every thread and child it starts later, to
    *count* of its processors; returns them ([] where the platform cannot)."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))[-count:]
    os.sched_setaffinity(0, cpus)
    return cpus


class _Sampler(threading.Thread):
    """Times the unit on one processor, about once per *period_s*."""

    def __init__(self, cpu: "int | None", period_s: float) -> None:
        super().__init__(name=f"yardstick-{cpu}", daemon=True)
        self.cpu = cpu
        self.period_s = period_s
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self.halt = threading.Event()

    def run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # pid 0: this thread only
        while not self.halt.wait(self.period_s):
            start = time.perf_counter()
            _unit()
            end = time.perf_counter()
            self.ends.append(end)
            self.speeds.append(REFERENCE_UNIT_S / (end - start))

    def speed(self, start: float, end: float) -> float:
        low = bisect.bisect_left(self.ends, start)
        high = bisect.bisect_right(self.ends, end)
        if high - low < 3:  # an interval of a few ms: take its neighbours too
            low, high = max(0, low - 2), min(len(self.ends), high + 2)
        window = self.speeds[low:high]
        return sum(window) / len(window) if window else 1.0  # before the first sample


class Yardstick:
    """One sampler per processor in *cpus* (one unpinned sampler if empty)."""

    def __init__(self, cpus: "list[int]", period_s: float = 0.01) -> None:
        self.samplers = [_Sampler(cpu, period_s) for cpu in cpus or [None]]

    def start(self) -> None:
        for sampler in self.samplers:
            sampler.start()

    def stop(self) -> None:
        for sampler in self.samplers:
            sampler.halt.set()
        for sampler in self.samplers:
            sampler.join()

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the processors over [start, end]; 1.0 is the
        reference host.  The time average of speed is what turns an
        interval into the work done in it."""
        return sum(s.speed(start, end) for s in self.samplers) / len(self.samplers)

    def factor(self, start: float, end: float) -> float:
        """What a simulator time measured over [start, end] is multiplied by."""
        return self.speed(start, end) ** SENSITIVITY

    def scaled(self, start: float, end: float) -> float:
        """The interval's length in seconds at yardstick speed."""
        return (end - start) * self.factor(start, end)
