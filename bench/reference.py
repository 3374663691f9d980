"""A fixed kernel that gauges how fast the host runs right now.

On a shared host another tenant can slow the same code by half or more, for
seconds or for minutes at a time, so raw wall times of identical runs
spread far wider than the changes the benchmark must see. The worker times
this kernel between short segments of items and rescales each item's time
by REFERENCE_MS over the kernel's time around it. Both slow down together,
so the ratio keeps the program's cost and drops the host's speed.

The kernel never touches nnormkit, so no change to the program can move
it. It mixes what nnormkit's own time is made of: interpreted loops over
small Python lists (a 6 x 6 elimination) and small numpy calls.
"""

from __future__ import annotations

import time

#: about the kernel's time on the reference host (2 cores, Python 3.11.7,
#: numpy 2.4.6, one BLAS thread) in its fast spells; rescaled times are
#: wall times on that host at that speed
REFERENCE_MS = 10.0
#: items between two timings of the kernel take about this long. The host's
#: speed changes within a second: rescaling every ~0.2 s left a 3% spread
#: of round times where rescaling once a round left 9-20%.
SEGMENT_S = 0.2

_SIZE = 6
_REPEATS = 400


def kernel_ms() -> float:
    """Wall time of one fixed run of the kernel, in milliseconds."""
    import numpy as np

    base = [[1.0 / (i + j + 1) + (i == j) for j in range(_SIZE)] for i in range(_SIZE)]
    start = time.perf_counter()
    acc = 0.0
    for r in range(_REPEATS):
        a = [row[:] for row in base]
        a[0][0] += r * 1e-3
        det = 1.0
        for k in range(_SIZE):
            pivot = a[k][k]
            det *= pivot
            for i in range(k + 1, _SIZE):
                f = a[i][k] / pivot
                for j in range(k, _SIZE):
                    a[i][j] -= f * a[k][j]
        m = np.asarray(base) + r * 1e-3
        acc += det + float(np.sqrt(np.linalg.det(m @ m.T))) + float(np.dot(m[0], m[1]))
    elapsed = 1e3 * (time.perf_counter() - start)
    if not acc > 0.0:  # keeps the arithmetic from being dead code
        raise RuntimeError("reference kernel produced a non-positive checksum")
    return elapsed


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns wall times measured between two kernel timings
    into wall times at the reference speed."""
    return REFERENCE_MS / (0.5 * (before_ms + after_ms))
