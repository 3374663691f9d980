"""Independent oracles the test suite checks the package against.

Everything here is deliberately brute force (cofactor expansion, exhaustive
family enumeration, a Gram-matrix solve, one evaluator call per tuple) and
shares no code with the implementation under test, except where a reference
names the `linalg` kernel it reuses to match the package bit for bit,
`fresh_evaluate`, which hands a stack's own unit rows to `nnorm._evaluate`,
and `per_subset_verdicts`, which reads `AnalyticTraces`' per-subset answers
to check how a whole selection combines them.
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


def per_tuple_shift_gap(norm, vs, alphas) -> float:
    """The relative gap of the shift identity on one tuple, by two direct
    evaluator calls: on the tuple, and on the tuple whose first vector gains
    sum(alphas[i] * vs[i + 1]). The scale is the larger Hadamard scale of
    the two tuples, from one `linalg._products` call over both tuples'
    `linalg.unit_rows` lengths; values inside the zero band sqrt(tol.zero)
    times that scale compare equal. This was the package's per-tuple rule
    before its batched shift check, which must match it bit for bit."""
    from nnormkit.linalg import _products, unit_rows

    cfg = norm.cfg
    vectors = list(np.asarray(vs, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        first = vectors[0] + sum(a * v for a, v in zip(alphas, vectors[1:]))
    moved = [first] + vectors[1:]
    base, shifted = norm(vectors), norm(moved)
    scale = max(_products(cfg.arity, unit_rows(cfg, np.array(vectors + moved))[1]))
    band = math.sqrt(cfg.tol.zero)
    if abs(base) <= band * scale and abs(shifted) <= band * scale:
        return 0.0
    return abs(base - shifted) / max(abs(base), abs(shifted), scale, 1e-300)


def fresh_units(cfg, stack):
    """The unit rows (B, n, d) and lengths (B, n) of a (B, n, d) stack,
    measured afresh by `linalg.unit_rows`, in the form `nnorm._evaluate`
    takes them."""
    from nnormkit.linalg import unit_rows

    units, lengths = unit_rows(cfg, stack)
    return units, np.array(lengths).reshape(units.shape[:2])


def fresh_evaluate(norm, stack):
    """Values and scales of `norm` on each tuple of a (B, n, d) stack, by
    `nnorm._evaluate` on the stack's own unit rows, measured again
    (`fresh_units`): what a stack derived from a batch's unit rows, or a
    batch's own evaluation, must match bit for bit."""
    from nnormkit.nnorm import _evaluate

    return _evaluate(norm, stack, fresh_units(norm.cfg, stack))


def generic_profile(frame, norm, u, columns):
    """The injected-norm class-1 profile, one evaluator call per requested
    column, as the package took it on float64 arrays: an exact
    `np.isfinite` check of u, u's length from `linalg.unit_rows`, and per
    column the range check, scale, evaluator call and zero flag, each
    written into its array entry (NaN and False where no column asked).
    Returns (values, scales, zero). It reads the frame geometry's products
    of lengths, shifts and zero slopes, so that the package's per-column
    work on Python floats must match it bit for bit."""
    from nnormkit.linalg import NON_FINITE, unit_rows
    from nnormkit.quotient import ScaleOutOfRange

    if not np.isfinite(u).all():
        raise ValueError(NON_FINITE)
    geometry = frame.geometry(norm.cfg)
    length = unit_rows(norm.cfg, u[None, :])[1][0]
    rows = list(frame.vectors)
    values = np.full(frame.n, np.nan)
    scales = np.full(frame.n, np.nan)
    zero = np.zeros(frame.n, dtype=bool)
    for j in columns:
        other, shift = float(geometry._others[j - 1]), int(geometry._shifts[j - 1])
        if not other * length < math.inf or (other * length and math.frexp(other * length)[1] + shift > 1024):
            raise ScaleOutOfRange(j, math.log10(other) + math.log10(length) + shift * math.log10(2.0))
        scales[j - 1] = math.ldexp(other * length, shift)
        values[j - 1] = norm([u] + rows[: j - 1] + rows[j:])
        zero[j - 1] = values[j - 1] <= math.ldexp(geometry._zero_slope[j - 1] * length, shift)
    return values, scales, zero


def per_subset_verdicts(traces, subsets):
    """(converges, cauchy, bounded, bound) of a selection read subset by
    subset off a `topology.AnalyticTraces`, as the verdict rows once read
    them: every subset's trace to the limit tends to zero, every subset is
    Cauchy, every subset is bounded, and the bound is Python's max of the
    per-subset bounds in subset order (None when some subset is unbounded).
    The union rule must reach the same conclusions off the selection's
    columns at once, and the same bound bit for bit, NaN included."""
    converges = all(traces.trace_limit_zero(s) for s in subsets)
    cauchy = all(traces.cauchy_on(s) for s in subsets)
    bounds = [traces.bounded_on(s) for s in subsets]
    bounded = all(ok for ok, _ in bounds)
    return converges, cauchy, bounded, max(b for _, b in bounds) if bounded else None


def gunawan_norm(cfg, vs, p) -> float:
    """Gunawan's l^p n-norm of the tuple (H. Gunawan, Bull. Austral. Math.
    Soc. 64, 2001): the l^p sum of the absolute n x n minors of the whitened
    rows, over every set of n coordinates (the max for p = inf). At p = 2,
    Cauchy-Binet makes it sqrt(det Gram), the standard norm; at any p >= 1
    it is an n-norm that no Gram matrix gives. Each minor is one
    `np.linalg.det` call."""
    rows = np.asarray(vs, dtype=float)
    if cfg.whitening is not None:
        rows = rows @ cfg.whitening.T
    minors = [abs(float(np.linalg.det(rows[:, list(c)]))) for c in combinations(range(cfg.dim), cfg.arity)]
    if p == math.inf:
        return max(minors)
    return math.fsum(m**p for m in minors) ** (1.0 / p)
