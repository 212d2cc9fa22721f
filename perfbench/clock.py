"""Host-normalised timing.

On a host whose CPUs other tenants also use, the speed a process gets
drifts by tens of percent over seconds to minutes.  A
fixed pure-Python calibration kernel, timed right next to the work it
normalises, slows down with it; so every reported time is the measured
time scaled by ``REFERENCE_S / kernel time``, i.e. seconds on a host
whose kernel takes :data:`REFERENCE_S`.  The raw times are printed too.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import List

#: Kernel time of the reference host (2 shared x86-64 CPUs, Python 3.11).
REFERENCE_S = 0.01


def calibration_kernel() -> int:
    """Fixed pure-Python integer work.  It allocates nothing the garbage
    collector tracks, so its time does not depend on how much the
    measured program has allocated."""
    total = 0
    for i in range(50_000):
        total += i * i % 7 + (i ^ (i >> 3)) % 5
    return total


def calibrate(runs: int = 3) -> float:
    """Seconds one run of the kernel takes now: the median of ``runs``
    back-to-back runs, so one preemption does not skew it."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate_cpus(runs: int = 5) -> float:
    """The kernel time averaged over every CPU this process may use.

    The CPUs of a shared host slow down independently, so a single-
    process measurement sees the speed of whichever CPU it lands on;
    work spread over several processes runs at their average.  The
    calling thread is pinned to each CPU in turn and then released.
    """
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate(runs))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def host_stamp() -> dict:
    """CPU count, Python version, platform and the calibration kernel time."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": round(calibrate(), 6),
    }


class NormalizedClock:
    """Times operations and scales each by the kernel runs around it.

    The kernel runs once before the first operation and again whenever
    at least ``every`` measured seconds have passed since it last ran;
    the operations in between are scaled by the mean of the two kernel
    times that bracket them.  Call :meth:`flush` before reading.
    """

    def __init__(self, every: float = 0.25):
        self.every = every
        self.raw: List[float] = []
        self.normalized: List[float] = []
        self._pending: List[float] = []
        self._since = 0.0
        self._lapped = 0
        self._last = calibrate()

    def add(self, seconds: float) -> None:
        """Record one operation's measured duration."""
        self._pending.append(seconds)
        self._since += seconds
        if self._since >= self.every:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = calibrate()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.raw.extend(self._pending)
        self.normalized.extend(s * factor for s in self._pending)
        self._pending = []
        self._since = 0.0

    def lap(self) -> float:
        """Flush; normalised seconds since the previous lap."""
        self.flush()
        seconds = sum(self.normalized[self._lapped:])
        self._lapped = len(self.normalized)
        return seconds

    @property
    def total(self) -> float:
        """Normalised seconds of every flushed operation."""
        return sum(self.normalized)


def normalize(seconds: float, before: float, after: float) -> float:
    """Scale one duration by the kernel times taken around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
