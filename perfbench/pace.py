"""CPU pace: scale measured times to a fixed reference speed.

The machine the benchmark was built on is shared with other tenants, and its
speed for pure-Python work drifts by 20-40 % in phases that last from
under a second to minutes (process CPU time drifts with wall time, so the
CPU itself slows). No run of at most a minute averages that out, so raw run
times of the same code differ by more than a regression bound.

So every worker times `kernel`, a fixed loop of pure-Python integer
arithmetic that never touches the program, each time PACE_EVERY_S seconds of
work have passed, and each measured interval is scaled by
REFERENCE_S / (the mean kernel time within WINDOW_S of it). A reported time
is the time the work would take when the kernel takes REFERENCE_S. A change
to the program moves the op times and not the kernel, so it moves the scaled
times by the same share as the raw ones; a slow phase of the machine moves
both and cancels. The kernel is short and sampled often (about 4 % of the
work) because the speed also flickers from one sample to the next, and an
op's time sums over that flicker. The raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Kernel time that reported times are scaled to (about its median in slow
#: phases of a 2-core x86-64 VM under CPython 3.11).
REFERENCE_S = 0.001
#: Seconds of work between two kernel samples.
PACE_EVERY_S = 0.025
KERNEL_STEPS = 1500
#: Kernel samples within this many seconds of an interval scale it ...
WINDOW_S = 1.0
#: ... and at least this many, the nearest ones if the window holds fewer.
MIN_SAMPLES = 8
#: Untimed kernel runs when a process starts, so its first sample is warm.
WARMUP = 2


def kernel() -> int:
    """Fixed integer work: no container allocation, so no GC, no heap walks."""
    x, m, acc = 0x9E3779B97F4A7C15, (1 << 61) - 1, 0
    buf = [0] * 64
    for i in range(KERNEL_STEPS):
        x = (x * x + i) % m
        acc ^= x >> 7
        buf[i & 63] = x
        if i % 3 == 0:
            acc += x // 1000003 + x % 1000003
    return acc + buf[7]


class Pace:
    """Kernel samples of one process, as [midpoint, seconds] pairs.

    The midpoints are `time.perf_counter()` values, which on Linux read the
    system-wide monotonic clock, so samples of several processes merge.
    """

    def __init__(self):
        self.samples: list[list[float]] = []
        self.spent_s = 0.0  # time spent in the kernel, warm-up included
        self.worked_s = 0.0
        t0 = time.perf_counter()
        for _ in range(WARMUP):
            kernel()
        self.spent_s += time.perf_counter() - t0
        self.sample()

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append([(t0 + t1) / 2, t1 - t0])
        self.spent_s += t1 - t0
        return t1 - t0

    def tick(self, worked_s: float) -> float:
        """Count `worked_s` seconds of work; sample when due. Returns the
        seconds spent sampling, so callers can leave them out of their wall."""
        self.worked_s += worked_s
        if self.worked_s < PACE_EVERY_S:
            return 0.0
        self.worked_s = 0.0
        return self.sample()


class Scale:
    """REFERENCE_S / kernel time, for any interval, from merged samples.

    The kernel time around an interval is the mean of the samples within
    WINDOW_S of it, or of the MIN_SAMPLES nearest ones.
    """

    def __init__(self, samples):
        pts = sorted(samples)
        if not pts:
            raise ValueError("no kernel samples")
        self.times = [t for t, _ in pts]
        self.secs = [s for _, s in pts]

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.secs)):
            lo, hi = max(0, lo - 1), min(len(self.secs), hi + 1)
        return REFERENCE_S / statistics.fmean(self.secs[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.factor(start, start + seconds)

    def overall(self) -> float:
        return REFERENCE_S / statistics.fmean(self.secs)
