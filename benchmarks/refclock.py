"""Scale measured times to a reference machine speed.

Wall time on a shared 2-vCPU VM moves with the load of its neighbours: the
same 0.5 s sweep varies by +-20% from one second to the next, and whole runs
have been 1.75x slower half an hour apart. A fixed kernel timed right before
and after a measured section slows down with it (correlation 0.76 per
section), so dividing a section's time by the kernel's, pairwise, removes most
of that drift: over 180 s of one fixed sweep the spread of 13 s blocks fell
from 12% to 5%.

The kernel does not use maee, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time at the reference speed: roughly what it takes on an idle
# 2-vCPU x86-64 VM with numpy 2.4.
REFERENCE_KERNEL_S = 0.05

_RNG = np.random.default_rng(0)
_GRID = np.linspace(0.0, 1.0, 2001)
_FREQS = _RNG.standard_normal(45)
_AMPS = _RNG.standard_normal(45)


def kernel_seconds() -> float:
    """Time the kernel once: maee's mix of work without maee.

    The mix: a cosine series on a grid (vectorized numpy), numpy calls on
    1-element arrays (call overhead) and plain interpreter arithmetic.
    """
    started = time.perf_counter()
    one = np.array([0.5])
    total = 0.0
    for i in range(40):
        total += float((np.cos(np.multiply.outer(_GRID, _FREQS) + i) @ _AMPS).sum())
    for i in range(3000):
        total += float(np.where(one > 0.1, np.log2(1.0 + one * i), -np.inf)[0])
    for i in range(30000):
        total += (i * 0.5) ** 0.5
    if not math.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite value")
    return time.perf_counter() - started


class ReferenceClock:
    """Brackets measured sections with kernel runs.

    Call ``adjust`` right after each section with its measured time: the
    kernel runs again, and the time comes back scaled by the reference time
    over the mean of the kernel times on either side of the section.
    """

    def __init__(self):
        kernel_seconds()  # warm-up
        self._last = kernel_seconds()

    def adjust(self, seconds: float) -> float:
        after = kernel_seconds()
        scale = 2.0 * REFERENCE_KERNEL_S / (self._last + after)
        self._last = after
        return seconds * scale
