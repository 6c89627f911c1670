"""Host-speed reference kernel.

The host's speed drifts over seconds, in CPU time as much as in wall time,
so the benchmark brackets every timed sample with this kernel and reports
``t * ref_nominal / ref_measured`` ("host-corrected seconds").  The kernel
imports numpy only and never the program under test, so it cannot move when
the program changes.  Its mix of tiny matrix products, element-wise updates
of a 4x4 array and a pure-Python scalar loop follows the program's own cost
profile: a pure-Python Jacobi solver on 3x3 and 4x4 matrices.
"""

from __future__ import annotations

import math
import time

import numpy as np

_REPS = 9
_ROUNDS = 250


def _kernel() -> float:
    a = np.eye(4) + np.arange(16.0).reshape(4, 4) / 64.0
    acc = 0.0
    for k in range(_ROUNDS):
        p, r = k % 3, 3 - k % 3
        b = (a @ a.T) @ a
        col_p = b[:, p].copy()
        col_r = b[:, r].copy()
        c = 1.0 / math.sqrt(1.0 + (k % 7) * 0.01)
        a[:, p] = c * col_p - 0.1 * col_r
        a[:, r] = 0.1 * col_p + c * col_r
        a /= float(np.abs(a).max())
        x = 0.0
        for i in range(40):
            x = x * 0.5 + math.sqrt(i + 1.0)
        acc += x + float(a[p, r])
    return acc


def measure() -> float:
    """Median wall seconds of nine back-to-back kernel runs."""
    times = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[_REPS // 2]
