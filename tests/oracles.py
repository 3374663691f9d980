"""Independent oracles the test suite checks the package against.

Everything here is deliberately brute force (cofactor expansion, exhaustive
family enumeration, a Gram-matrix solve) and shares no code with the
implementation under test.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def cofactor_det(m) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 1:
        return float(m[0][0])
    total = 0.0
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1.0) ** j * float(m[0][j]) * cofactor_det(minor)
    return total


def covers(family, n: int) -> bool:
    return set().union(*[set(s) for s in family]) >= set(range(1, n + 1)) if family else n == 0


def exhaustive_min_cover_size(n: int, m: int) -> int:
    """Smallest family of size-m subsets of {1..n} whose union covers, by search."""
    subsets = list(combinations(range(1, n + 1), m))
    for size in range(1, len(subsets) + 1):
        for family in combinations(subsets, size):
            if covers(family, n):
                return size
    raise AssertionError("no cover found, which is impossible for m >= 1")


def enumerate_covers_bruteforce(n: int, m: int, size: int) -> set[frozenset[tuple[int, ...]]]:
    """All families of exactly `size` distinct size-m subsets covering {1..n}."""
    subsets = list(combinations(range(1, n + 1), m))
    found = set()
    for family in combinations(subsets, size):
        if covers(family, n):
            found.add(frozenset(family))
    return found


def hadamard_bound(m) -> float:
    """Product of row Euclidean norms; |det| never exceeds this."""
    bound = 1.0
    for row in m:
        bound *= math.sqrt(sum(float(x) ** 2 for x in row))
    return bound


def gram_perp_part(metric, rows, w):
    """w minus its metric projection onto the span of the independent rows,
    by solving with their Gram matrix: the reference for the package's
    projections, which form no Gram matrix."""
    rows, w = np.asarray(rows, dtype=float), np.asarray(w, dtype=float)
    metric = np.eye(len(w)) if metric is None else np.asarray(metric, dtype=float)
    gram = rows @ metric @ rows.T
    return w - rows.T @ np.linalg.solve(0.5 * (gram + gram.T), rows @ metric @ w)
