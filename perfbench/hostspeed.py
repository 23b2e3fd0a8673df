"""Host-speed reference for normalizing timings.

The benchmark runs on shared hosts where the speed of a core drifts by tens
of percent within seconds, so that two runs of the same code can differ by
15% in wall time.  A fixed piece of work that does not touch tbcurv (a
Python float loop and small numpy solves, the same mix of interpreter and
numpy time as the program) is timed after every job.  The trimmed mean of
the kernel times around a job (HALF_WINDOW jobs either side), divided by
REFERENCE_S, is that job's host factor.  The kernel's times have two modes
about 40% apart, which the host switches between within seconds; a median
jumps from one to the other, while the trimmed mean weighs them by how
often each occurred and still drops outliers.  Dividing the job time by the
factor gives the time at reference host speed.  On the host where
REFERENCE_S was measured, that is the wall time itself.  A change to tbcurv
does not change the kernel, so a program speed-up shows in full.

Set-up time runs in fresh interpreters, where the kernel does not track
it.  Its reference is a fresh interpreter that imports numpy and a fixed
set of standard-library modules (``setup_probe.py --reference``), started
right before or after each set-up probe.  Set-up time over reference time,
times REFERENCE_IMPORT_S, is the set-up time at reference host speed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Trimmed-mean kernel time on the shared 2-core x86_64 machine (Python 3.11, numpy 2.4)
# where the benchmark's baseline was recorded.
REFERENCE_S = 1.53e-3
# Median wall time of the reference import on the same machine.
REFERENCE_IMPORT_S = 0.13

# Kernel runs either side of a job that set its host factor: wide enough to
# average out the kernel's own noise, narrow enough (about a second of
# verify jobs) to follow the drift.
HALF_WINDOW = 5
# Share of a window's kernel times dropped at each end before averaging.
TRIM = 0.2

_SYSTEM = 3.0 * np.eye(6) + 0.1 * np.ones((6, 6))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += math.exp(-i * 1e-3) * (i % 7)
    x = np.ones(6)
    for _ in range(100):
        x = np.linalg.solve(_SYSTEM, x + acc * 1e-9)
    return perf_counter() - start


def host_factor(kernel_times: list) -> float:
    """How much slower than the reference host these kernel times are:
    their mean without the fastest and slowest TRIM of them, over
    REFERENCE_S."""
    times = sorted(kernel_times)
    cut = int(len(times) * TRIM)
    return statistics.fmean(times[cut:len(times) - cut]) / REFERENCE_S


def normalize(durations: list, kernel_times: list) -> list:
    """Job durations at reference host speed; ``kernel_times[i]`` is the
    kernel run right after job i, in the order the jobs ran."""
    n = len(durations)
    return [
        d / host_factor(kernel_times[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)])
        for i, d in enumerate(durations)
    ]
