"""Order statistics for item times.

The tail percentile follows one rule: the highest percentile with at least
ten items beyond it. A run may complete more rounds than its minimum, so
the level is fixed per workload from the minimum item count. Every run then
reports the same percentile, with at least ten items beyond it. Both the
median and the tail are Harrell-Davis estimates at their level.
"""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def tail_level(min_items: int) -> float:
    """Highest percentile (0-100) that leaves TAIL_BEYOND of min_items above it."""
    if min_items <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} items for a tail, got {min_items}")
    return 100.0 * (min_items - TAIL_BEYOND) / min_items


def nearest_rank(values, level: float) -> tuple[float, int]:
    """Nearest-rank percentile of values at level (0-100], and how many
    values lie beyond the chosen one."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    # round away float noise so that level = tail_level(n) lands on rank n - 10
    index = max(math.ceil(round(level / 100.0 * len(ordered), 9)) - 1, 0)
    return ordered[index], len(ordered) - 1 - index


def harrell_davis(values, q: float, grid: int = 20001) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights concentrated around rank qn. Unlike the sample median it does not
    jump when the middle rank sits between two clusters of similar items.
    The Beta CDF is integrated numerically on a uniform grid.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, grid)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - np.max(log_pdf[np.isfinite(log_pdf)]))
    pdf[~np.isfinite(pdf)] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(edges) @ x)
