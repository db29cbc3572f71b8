"""Host-speed calibration for the time metrics, timed outside the measured
process.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes.  On a shared 2-vCPU Intel Xeon virtual machine one quadrature
op took 3.6 s for two minutes, then 2.7 s, with identical work, and over ten
15 s runs the quartile spread of the raw median op time reached 28 %.
Before and after each timed op, and between set-up starts, run.py times a
fixed kernel that uses no meanwidth code: a scalar Python loop like the
quadrature integrands and numpy draws and row reductions like the sampler.
It runs in run.py's own process, three times per request, and the median
counts; the measured process waits, idle, while it runs.  So neither the
op's leftover heap and thread state nor one preempted sample moves the
figure.  A time metric is reported as measured time scaled by REFERENCE_S
over the mean of the kernel medians before and after it, i.e. seconds at the
host speed where the kernel takes REFERENCE_S.  Any change of the program's
own speed shows in full; the raw times are printed and kept in the run
record.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.040  # the kernel's typical time on that 2-vCPU Intel Xeon machine


def kernel_s() -> float:
    """Wall time of one pass of the fixed calibration kernel (about 40 ms)."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += math.exp(-1e-5 * i)
    rng = np.random.default_rng(12345)
    for _ in range(12):
        g = rng.standard_normal((1000, 100))
        acc += float((np.abs(g).sum(axis=1) / np.linalg.norm(g, axis=1)).sum())
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return perf_counter() - t0


def median_kernel_s() -> float:
    """Median of three kernel passes."""
    return statistics.median(kernel_s() for _ in range(3))


def adjusted(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A measured time in seconds at the reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
