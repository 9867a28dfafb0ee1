"""Machine-speed calibration of the benchmark's times.

The CPU speed of a shared virtual machine drifts by 10-45% over seconds
to minutes as other tenants come and go, which is more than the changes
the benchmark has to resolve.  So the in-process workers time a fixed
pure-Python kernel after each op and scale each op to the reference
speed, at which one kernel pass takes ``REFERENCE_S``.  The kernel never
touches the program, so only the machine moves it; every run prints the
unscaled values next to the scaled ones.  Spawned commands and set-up
are not scaled: this kernel, timed in the client, tracked their speed
too loosely to help, and so did a spawned gauge (see ``spawns.py``).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# About the median kernel pass (10.6 ms) on the machine of BASELINE.md.
REFERENCE_S = 0.010


class _Vec:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def _kernel_pass() -> float:
    """Integer loops, float math with tuples and dicts, small objects.

    A blend, because no single kind of loop tracks every workload: the
    check suite follows integer-heavy loops best, the cascade float ones.
    """
    acc = 0
    for i in range(36000):
        acc += i * i % 7
    points = {}
    for i in range(4000):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        points[i] = (c * 1.5 - s, s * 1.5 + c)
        acc += math.hypot(points[i][0] - c, points[i][1] - s)
    vecs = [_Vec(math.cos(i * 1e-3), math.sin(i * 1e-3)) for i in range(3300)]
    for a, b in zip(vecs, vecs[1:]):
        d = _Vec(a.x - b.x, a.y - b.y)
        acc += math.hypot(d.x, d.y)
    return acc


class Speed:
    """Kernel timings of one run, one entry per op."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, work_s: float) -> None:
        """Time kernel passes worth about 5% of ``work_s``, at least one."""
        passes = []
        for _ in range(max(1, round(0.05 * work_s / REFERENCE_S))):
            start = perf_counter()
            _kernel_pass()
            passes.append(perf_counter() - start)
        self.samples.append(statistics.median(passes))

    def scale(self, times: list[float]) -> list[float]:
        """Op times at the reference speed.

        Op i is scaled by the kernel timed just before it and just after
        it, so an op that ran in a slow or a fast moment is judged by that
        moment's speed, not by the run's typical speed.
        """
        return [
            t * 2.0 * REFERENCE_S / (self.samples[max(i - 1, 0)] + self.samples[i])
            for i, t in enumerate(times)
        ]
