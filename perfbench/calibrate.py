"""Host-speed calibration for timings taken on a shared machine.

On a shared host, other tenants slow every process for seconds to minutes
at a time (measured on the reference host: the same `verify` run 1.7 s in
one half-minute and 3.0 s in the next, with process CPU time moving the
same way).  Medians over a run cannot remove a slowdown that lasts the
whole run.  So a fixed kernel is timed at a calibration point between
operations, and each operation's time is scaled by

    REFERENCE_S / mean(calibration point before it, calibration point after it)

A calibration point is the median of three kernel runs, so one interrupted
kernel run does not skew it.  The kernel mixes the program's three kinds of
work: array arithmetic, small-array calls from Python, and float
formatting.  It is benchmark code, so no change to the program moves it.
Scaled timings read as seconds on the reference host when it is idle.

The kernel also runs inside the measured ``param-scan`` child, so it must
not show in that child's peak RSS or depend on its heap: its buffers (3 MiB,
a tenth of the child's import footprint) are allocated once, at import, and
reused through ``out=``, so a kernel run allocates no array.  They are
larger than one core's L2, so the kernel feels memory contention too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference host (2-core shared Xeon) when idle.
REFERENCE_S = 0.040

_N = 1 << 17
_X = np.linspace(0.0, 1.0, _N)
_A = np.empty(_N)
_B = np.empty(_N)
_V = np.zeros(6)
_W = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
_T = np.empty(6)
_FLOATS = _X[:1000].tolist()


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    _V[:] = 0.0
    start = time.perf_counter()
    for _ in range(16):
        np.sin(_X, out=_A)
        np.cos(_X, out=_B)
        np.multiply(_A, _B, out=_A)
        np.multiply(_X, _X, out=_B)
        np.add(_A, _B, out=_A)
    for _ in range(4000):
        _W[0] = _V[0]
        np.multiply(_W, 0.5, out=_T)
        np.add(_V, _T, out=_V)
    for _ in range(30):
        ",".join(f"{u:.12g}" for u in _FLOATS)
    return time.perf_counter() - start


def point_seconds() -> float:
    """One calibration point: the median of three kernel runs."""
    return statistics.median(kernel_seconds() for _ in range(3))
