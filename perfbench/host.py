"""Host speed calibration.

The 2-core x86 machine this benchmark was sized on changes speed by up to
1.5x, on both CPUs at once, in states that last from seconds to minutes,
so two runs of identical work can differ by 40% in wall time.  A fixed
kernel of interpreter and small-array numpy work, independent of roblp,
is timed between the timed calls.  Each call's wall time is scaled to a
host on which the kernel takes ``REFERENCE_S``: on identical adaptive
replications this cut the pass-to-pass spread from 18% to 7% (CV).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010
_LOOP = 60_000
_ARRAY_ROUNDS = 200
_X = np.linspace(0.0, 1.0, 4096)


def kernel_seconds() -> float:
    """Wall time of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_LOOP):
        acc += i * 0.5
    for k in range(_ARRAY_ROUNDS):
        inside = np.abs(_X - k / _ARRAY_ROUNDS) <= 0.1
        acc += float(np.sort(_X[inside]).sum())
    return time.perf_counter() - t0


class Clock:
    """Times calls in reference seconds.  A call's wall time is scaled by
    ``REFERENCE_S`` over the mean kernel time just before and after it; the
    kernel that ends one call starts the next."""

    def __init__(self):
        self.kernels = [kernel_seconds()]
        self.raw: list[float] = []

    def measure(self, fn, *args):
        """Returns ``(result, wall seconds, scale to reference seconds)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.kernels.append(kernel_seconds())
        self.raw.append(wall)
        return result, wall, 2.0 * REFERENCE_S / (self.kernels[-2] + self.kernels[-1])

    def kernel_ms_p50(self) -> float:
        return 1e3 * float(np.median(self.kernels))
