"""Host-speed correction for the end-to-end timings.

The machines this benchmark runs on are shared: the CPU under a process
slows down by up to ~1.6x when a neighbour is busy, for a second to a minute
at a time, which moved whole 25 s runs by 40% between identical runs. A
`HostSpeed` sampler times a fixed pure-Python reference workload every
`every_ns` while the workload runs (the caller excludes that time from its
own timings) and scales each measured interval by

    NOMINAL_NS / (reference time around that interval)

so that the end-to-end timings read as on a host where the reference takes
NOMINAL_NS, whatever the neighbours do. Set-up times are scaled by
`factor_now()` taken on the set-up's CPU just before (and, for a probe,
after) it. Per-layer (traced) timings are reported raw.

The reference runs in the measured process, on its heap and beside its
threads, so what the program does can move it too (README.md, "Raw and
scaled", has a change that the scaled figures under-report). Every workload
therefore also prints the raw value of each scaled metric and a summary of
the factors (`factor_summary`).
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left

from stats import median

NOMINAL_NS = 200_000  # the reference's time on an unloaded host of the reference machine
EVERY_NS = 20_000_000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def reference():
    """Fixed interpreter work in the simulator's style: small objects,
    attribute reads, tuple-keyed dicts, a keyed sort."""
    table = {}
    for i in range(400):
        p = _Point(i, i * 3)
        table[(i % 17, i)] = p.x + p.y
    return len(sorted(table.items(), key=lambda kv: kv[1]))


def factor_now(samples=5):
    """The correction factor for the calling thread's CPU right now."""
    speed = HostSpeed()
    for _ in range(samples):
        speed.sample()
    return NOMINAL_NS / median(speed.ns)


def summarise_factors(factors):
    return {"median": median(factors), "min": min(factors, default=None),
            "max": max(factors, default=None), "samples": len(factors)}


class HostSpeed:
    def __init__(self, every_ns=EVERY_NS, clock=time.perf_counter_ns, work=reference):
        self.every_ns = every_ns
        self.clock = clock
        self.work = work
        self.at = array("q")  # end of each sample
        self.ns = array("q")  # its duration

    def due(self, now):
        """Whether a sample is due; never, when built with every_ns=None."""
        if self.every_ns is None:
            return False
        return not self.at or now - self.at[-1] >= self.every_ns

    def sample(self):
        """Time the reference once; returns the clock reading after it."""
        t0 = self.clock()
        self.work()
        t1 = self.clock()
        self.at.append(t1)
        self.ns.append(t1 - t0)
        return t1

    def factor(self, t):
        """NOMINAL_NS over the median of the (up to) four samples nearest to
        instant `t`; 1.0 before any sample."""
        i = bisect_left(self.at, t)
        near = self.ns[max(0, i - 2):i + 2]
        return NOMINAL_NS / median(near) if near else 1.0

    def factor_summary(self):
        """Median, smallest and largest factor over the samples, and their count."""
        return summarise_factors([NOMINAL_NS / ns for ns in self.ns])

    def samples(self):
        return list(self.at), list(self.ns)

    @classmethod
    def from_samples(cls, at, ns):
        speed = cls()
        speed.at.extend(at)
        speed.ns.extend(ns)
        return speed
