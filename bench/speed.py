"""Host speed calibration: time measured on a shared host, scaled to a fixed
reference speed.

The benchmark runs on a few cores of a shared host whose speed for one
single-threaded process drifts by up to 1.7x over minutes (another tenant's
load on the same physical core), which no median within a 40 s run can
remove.  So every timed interval is bracketed by two bursts of a fixed
calibration kernel, and its wall time is scaled by REFERENCE_S over the mean
of the two bursts: the result is the time the interval would have taken on a
host where one burst takes REFERENCE_S.  The kernel is exact ``Fraction``
arithmetic, the same kind of work as the program's scalars (``Fraction`` and
tuples of ``Fraction``), and touches nothing of ``grforge``, so a change to
the program changes the scaled time and not the scale.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# seconds one burst takes on this benchmark's 2-vCPU host when the core is
# not shared; scaled times are seconds at that speed
REFERENCE_S = 0.0012
KERNEL_REPEATS = 3
_N = 8


def _kernel():
    """Gaussian elimination of a fixed 8x8 Fraction matrix and a product of
    two Fraction polynomials: allocation, gcd and bytecode dispatch."""
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(_N)]
         for i in range(_N)]
    for r in range(_N):
        piv = next(i for i in range(r, _N) if m[i][r])
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][r]
        for i in range(r + 1, _N):
            f = m[i][r] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
    a, b = m[_N - 1], [row[0] for row in m]
    conv = [Fraction(0)] * (2 * _N - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return conv


def burst():
    """Seconds for one calibration burst: the fastest of a few kernel runs,
    with the garbage collector paused so that the program's heap does not
    leak into the figure."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = clock()
            _kernel()
            best = min(best, clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before, after):
    """Factor from wall seconds to reference seconds for an interval between
    two bursts."""
    return REFERENCE_S / ((before + after) / 2)


def timed(fn):
    """(result, wall seconds, reference seconds) of one call of ``fn``."""
    before = burst()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * scale(before, burst())
