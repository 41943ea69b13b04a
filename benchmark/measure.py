"""Timing arithmetic shared by the benchmark: the reference unit, percentiles, digests.

Raw seconds on a shared host drift by tens of percent from one window to the
next, so every op is timed in `ref`: the current duration of a fixed,
stdlib-only kernel with the library's inner-loop mix (Fraction multiply-add
plus dict updates).  The kernel is sampled between ops, never inside one, and
each op's seconds are divided by the sample nearest to it in time.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

KERNEL_ITERS = 400
KERNEL_REPS = 5
SAMPLE_INTERVAL_S = 0.25
TAIL_BEYOND = 10
PROCESS_KERNEL_RUNS = 10
# set-up time is reported in seconds at this process-kernel duration (its
# median on a 2-core x86 host running CPython 3.11), so it too is free of drift
NOMINAL_PROCESS_REF_MS = 80.0

_STEP = Fraction(3, 7)


def ref_kernel() -> int:
    """The fixed work whose duration is one `ref`.  Never change it: every
    recorded figure in `ref` is relative to exactly this loop."""
    acc = {}
    for i in range(KERNEL_ITERS):
        c = Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 13, i % 3)
        got = acc.get(key)
        acc[key] = c * c if got is None else got + c * _STEP
    return len(acc)


def sample_ref() -> Tuple[float, float]:
    """One sample: (midpoint time, median kernel seconds over KERNEL_REPS runs)."""
    runs = []
    start = time.perf_counter()
    for _ in range(KERNEL_REPS):
        t = time.perf_counter()
        ref_kernel()
        runs.append(time.perf_counter() - t)
    return (start + time.perf_counter()) / 2, statistics.median(runs)


def sample_ref_process() -> Tuple[float, float]:
    """One sample for ops that are fresh processes: (midpoint, seconds of one
    fresh interpreter running the kernel PROCESS_KERNEL_RUNS times).

    A process start pays for exec, imports and page faults, which the host
    slows down differently from a warm loop; a kernel in a warm process does
    not track such ops, a kernel process does.
    """
    import subprocess
    import sys

    start = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms and the
    # sample reads the polling schedule instead of the kernel
    subprocess.run([sys.executable, __file__], check=True)
    end = time.perf_counter()
    return (start + end) / 2, end - start


class RefClock:
    """Kernel samples taken between ops at a fixed time interval."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S, sampler=sample_ref):
        self.interval = interval
        self.sampler = sampler
        self.samples: List[Tuple[float, float]] = []

    def maybe_sample(self, now: float) -> None:
        """Take a sample if none exists yet or the last one is `interval` old."""
        if not self.samples or now - self.samples[-1][0] >= self.interval:
            self.samples.append(self.sampler())

    def kernel_ms(self) -> float:
        return 1000 * statistics.median(s for _, s in self.samples)


def normalise(spans: Sequence[Tuple[float, float]], samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Each op's duration in `ref`, divided by the sample nearest its midpoint.

    `spans` are (start, end) in time order, `samples` are (time, seconds) in
    time order; both use the same clock.
    """
    if not samples:
        raise ValueError("no reference samples")
    times = [t for t, _ in samples]
    out = []
    j = 0
    for start, end in spans:
        mid = (start + end) / 2
        while j + 1 < len(times) and abs(times[j + 1] - mid) <= abs(times[j] - mid):
            j += 1
        out.append((end - start) / samples[j][1])
    return out


def tail_rank(n: int) -> Tuple[int, int]:
    """(percentile, 0-based index into the sorted values) of the tail latency.

    The tail is the highest whole percentile with at least TAIL_BEYOND ops
    strictly beyond its nearest-rank value.  It never goes below the median:
    with fewer than 2*TAIL_BEYOND ops it is p50, with fewer ops beyond.
    """
    if n < 1:
        raise ValueError("no ops")
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    while pct > 50 and n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        pct -= 1
    return pct, max(0, math.ceil(pct * n / 100) - 1)


def latency_summary(values: Sequence[float]) -> dict:
    ordered = sorted(values)
    pct, idx = tail_rank(len(ordered))
    p50 = statistics.median(ordered)
    return {
        "p50": p50,
        "tail": max(ordered[idx], p50),
        "tail_pct": pct,
        "tail_beyond": len(ordered) - idx - 1,
        "ops": len(ordered),
    }


class Digest:
    """sha256 over canonical renderings of results, in op order."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, text: str) -> None:
        self._h.update(text.encode())
        self._h.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


if __name__ == "__main__":  # the process form of the kernel, see sample_ref_process
    for _ in range(PROCESS_KERNEL_RUNS):
        ref_kernel()
