"""Dense small-matrix numerics shared by the whole package.

Vectors and matrices are float64 numpy arrays. Shape and finiteness are
validated once, at the public boundaries, a tuple of vectors as one array
(`as_rows`). The private kernels (leading underscore) take arrays the
package built or checked already. The kernels assume clean inputs and are
written for the desk-scale sizes this package targets (dimensions up to a few
dozen).

Every Gram volume sqrt(det G) in the package comes from one kernel,
`_volumes`: one QR factor of the unit whitened rows of a tuple or of a stack
of tuples, so no Gram matrix is formed, let alone solved, on the way;
`_volumes` says why it calls numpy's dgeqrf gufunc directly. Every product
of lengths and QR diagonals (a volume, a Hadamard scale, a frame's unit
volume) comes from one helper, `_products`: inf only past the double range,
and the plain product's bits wherever no partial product leaves the normal
range. The LU `determinant` is a public function with no caller inside the
package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw

__all__ = [
    "DimensionMismatch",
    "Tolerance",
    "DEFAULT_TOL",
    "SpaceConfig",
    "as_vector",
    "as_rows",
    "as_square_matrix",
    "inner",
    "hadamard_scale",
    "gram_matrix",
    "determinant",
    "rank",
]


class DimensionMismatch(ValueError):
    """An input does not fit the ambient space; carries expected vs actual."""

    def __init__(self, what: str, expected, actual):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected {expected}, got {actual}")


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used across the package.

    zero: absolute threshold for treating a scalar as zero (scaled by input
        magnitude where the operation says so).
    rel: threshold for relative comparisons.
    sym: threshold for symmetry checks on matrices.
    """

    zero: float = 1e-9
    rel: float = 1e-9
    sym: float = 1e-12

    def __post_init__(self):
        for name in ("zero", "rel", "sym"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name!r} must be finite and > 0, got {value}")


DEFAULT_TOL = Tolerance()

#: the ValueError message for a vector with an infinite or NaN entry
NON_FINITE = "vector has non-finite coordinates"


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally of a fixed length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch("vector ndim", 1, v.ndim)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch("vector length", dim, v.shape[0])
    if not np.all(np.isfinite(v)):
        raise ValueError(NON_FINITE)
    return v


def as_rows(vs, dim: int | None = None) -> np.ndarray:
    """Coerce a sequence of vectors to a finite 2-D float array, one row per
    vector, checked as one array; the row length is `dim`, or the first
    vector's when None.

    A bad input raises what as_vector raises for the first bad vector.
    """
    if len(vs) == 0:
        return np.zeros((0, dim or 0))
    try:
        rows = np.asarray(vs, dtype=float)
    except ValueError:  # ragged; found below
        rows = None
    if rows is not None and rows.ndim == 2 and dim in (None, rows.shape[1]) and np.isfinite(rows).all():
        return rows
    first = as_vector(vs[0], dim)
    return np.array([as_vector(v, first.shape[0]) for v in vs])


def as_square_matrix(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite square 2-D float array."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix shape", "square", m.shape)
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch("matrix size", dim, m.shape[0])
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class SpaceConfig:
    """Ambient space: dimension d, norm arity n <= d, and an SPD metric.

    metric=None means the standard dot product (identity metric).
    `whitening` is L^T for the Cholesky factor metric = L L^T (None for the
    dot product), so that inner(a, b) = (L^T a) . (L^T b).
    """

    dim: int
    arity: int
    metric: np.ndarray | None = None
    tol: Tolerance = DEFAULT_TOL

    whitening: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.arity <= self.dim:
            raise ValueError(f"arity must satisfy 1 <= arity <= dim, got arity={self.arity}, dim={self.dim}")
        if self.metric is not None:
            m = as_square_matrix(self.metric, self.dim).copy()
            if np.max(np.abs(m - m.T)) > self.tol.sym:
                raise ValueError("metric is not symmetric")
            try:
                whitening = np.linalg.cholesky(m).T
            except np.linalg.LinAlgError:
                raise ValueError("metric is not positive definite") from None
            m.flags.writeable = False
            whitening.flags.writeable = False
            object.__setattr__(self, "metric", m)
            object.__setattr__(self, "whitening", whitening)

    def metric_matrix(self) -> np.ndarray:
        return np.eye(self.dim) if self.metric is None else self.metric


def inner(cfg: SpaceConfig, a, b) -> float:
    """Inner product a' M b under the config's metric."""
    return _inner(cfg, as_vector(a, cfg.dim), as_vector(b, cfg.dim))


def _inner(cfg: SpaceConfig, a: np.ndarray, b: np.ndarray) -> float:
    if cfg.metric is None:
        return float(a @ b)
    # symmetrised evaluation so inner(a, b) == inner(b, a) bit-for-bit
    return float(0.5 * (a @ (cfg.metric @ b) + b @ (cfg.metric @ a)))


def _metric_length(cfg: SpaceConfig, v: np.ndarray) -> float:
    # squares before the root, so it is 0 or inf for entries beyond about
    # 1e±154. Only vectors of unit scale reach it: `random_frame` rows, the
    # axiom sampler's draws and combinations, and `_escape_direction`'s
    # complement parts of normal draws, which the frame's unit rows keep at
    # unit scale however tiny or huge the frame. Taking `unit_rows`' length
    # here would move those draws' bits, so it waits for a change of the
    # random stream; a length of anything else, such as a frame row, is
    # taken as `unit_rows` takes it
    return math.sqrt(max(_inner(cfg, v, v), 0.0))


def hadamard_scale(cfg: SpaceConfig, vs) -> float:
    """Product of the metric lengths of the vectors.

    This is the Hadamard upper bound for the Gram-volume of the tuple, and is
    the natural magnitude against which norm values and residuals are scaled.
    Each length is taken as `unit_rows` takes it (math.hypot of the whitened
    vector), never through a squared length, and their product by
    `_products`, so the scale is inf only past the double range and nonzero
    wherever the true product rounds to a nonzero double. The empty tuple's
    scale is the empty product, 1.0.
    """
    return _products(len(vs), unit_rows(cfg, as_rows(vs, cfg.dim))[1])[0] if len(vs) else 1.0


def unit_rows(cfg: SpaceConfig, rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Whitened rows L^T v of a checked (..., n, d) array scaled to unit
    length, and their metric lengths in row-major order.

    Lengths are taken as math.hypot takes them, so no row overflows or
    underflows on the way to unit length. Zero rows stay zero. A stack of
    tuples comes out bit for bit as each tuple would alone.
    """
    if cfg.whitening is not None:
        rows = rows @ cfg.whitening.T
    flat = rows.reshape(-1, rows.shape[-1])
    lengths = [math.hypot(*row) for row in flat.tolist()]
    units = flat / np.array([x if x > 0.0 else 1.0 for x in lengths])[:, None]
    return units.reshape(rows.shape), lengths


def _volumes(cfg: SpaceConfig, tuples: np.ndarray) -> tuple[list[float], list[float]]:
    """Gram volumes sqrt(det G) of a checked (k, d) tuple (a list of one)
    or of each tuple of a checked (B, k, d) stack, and the rows' metric
    lengths as `unit_rows` gives them.

    A volume is the product of the lengths times |prod r_ii| of the QR
    factor of the unit whitened rows (no Gram matrix, whose condition number
    is the square of theirs), or 0.0 when a row is zero; no QR is taken
    when every tuple has one. The volumes are one `_products` call on the
    stack, the lengths' product times the |r_ii|'s product: inf only beyond
    the double range, not lost to an r_ii product that underflows where the
    lengths carry the volume back into range, and the plain product's bits
    wherever no partial product leaves the normal range.

    One dgeqrf gufunc call (numpy >= 2.0) factors the tuple or the whole
    stack in place, in a fresh copy of the transposed unit rows, and the
    r_ii are read off that copy's diagonal: the same call on the same input
    as `np.linalg.qr(..., mode="raw")`, so the same bits, without the
    wrapper's per-call checks, copy and error-state set-up, which outweigh
    the factorisation on these small shapes. No np.errstate is needed around
    it: the gufunc clears the floating-point flags itself and raises only
    "invalid", when LAPACK reports a failure, which dgeqrf does not do on
    finite unit rows.
    """
    k = tuples.shape[-2]
    units, lengths = unit_rows(cfg, tuples)
    if min(lengths) == 0.0 and not any(min(lengths[i : i + k]) for i in range(0, len(lengths), k)):
        return [0.0] * (len(lengths) // k), lengths
    factor = units.swapaxes(-1, -2).copy()
    _qr_r_raw(factor)
    return _products(k, lengths, np.abs(factor.diagonal(0, -2, -1)).ravel().tolist()), lengths


def _products(k: int, factors: list[float], more: list[float] | None = None) -> list[float]:
    """Range-safe products of finite nonnegative factors: entry i is the
    product of factors[i*k : i*k + k] from the left, times, when `more` is
    given, the product of more[i*k : i*k + k] (a volume is its lengths'
    product times its |r_ii|'s).

    When every nonzero factor of the stack lies in [2**-b, 2**b], b = 1020
    // K for K factors per entry, no partial product can leave the normal
    range (a zero factor makes its product exactly 0.0), and the plain
    products are taken. The band is tested once per stack, so a stack in
    range pays for no split. Otherwise each entry comes from
    `_split_product`: the plain product's bits wherever no partial product
    leaves the normal range, inf past the double range, and below it the
    exact product, rounded once (the split mantissas, rounded again into
    the subnormal range, can land a unit away from it).
    """
    every = factors if more is None else factors + more
    b = 1020 // (k if more is None else 2 * k)
    low = min(every)
    if low == 0.0:
        low = min(filter(None, every), default=1.0)
    starts = range(0, len(factors), k)
    if 2.0**-b <= low and max(every) <= 2.0**b:
        if more is None:
            return [math.prod(factors[i : i + k]) for i in starts]
        return [math.prod(factors[i : i + k]) * math.prod(more[i : i + k]) for i in starts]
    products = []
    for i in starts:
        groups = [factors[i : i + k]] if more is None else [factors[i : i + k], more[i : i + k]]
        p, shift = _split_product(*groups)
        if shift < 0:
            p = float(math.prod(map(Fraction, itertools.chain(*groups))))
        products.append(math.inf if shift > 0 else p)
    return products


def _split_product(*groups: list[float]) -> tuple[float, int]:
    """The product of the groups' products of finite nonnegative factors as
    (p, shift), product = p * 2**shift, with shift = 0 wherever the product
    is a normal double or zero.

    p is the product of the groups' products of the factors' mantissas, and
    shift the sum of their exponents, folded into p when the product is
    normal or zero. Rounding commutes with scaling by powers of two in the
    normal range, so p has the bits of the plain product in the same
    association wherever none of its partial products leaves the normal
    range, and stays within one rounding per factor of the true product
    where one does (the plain product of 1e-160, 1e-160 and 1e160 passes
    through a subnormal and loses five digits).
    """
    parts = [[math.frexp(f) for f in group] for group in groups]
    p = math.prod(math.prod(m for m, _ in group) for group in parts)
    shift = sum(e for group in parts for _, e in group)
    if p == 0.0 or -1021 <= math.frexp(p)[1] + shift <= 1024:
        return math.ldexp(p, shift), 0
    return p, shift


def gram_matrix(cfg: SpaceConfig, vs) -> np.ndarray:
    """Matrix of pairwise inner products; symmetrised to kill rounding skew."""
    if len(vs) == 0:
        raise ValueError("gram_matrix needs at least one vector")
    rows = as_rows(vs, cfg.dim)
    g = rows @ rows.T if cfg.metric is None else rows @ cfg.metric @ rows.T
    return 0.5 * (g + g.T)


def determinant(m) -> float:
    """Determinant by LU with partial pivoting.

    A zero pivot column short-circuits to an exact 0.0, so exactly singular
    integer-valued matrices (e.g. Gram matrices of repeated basis vectors)
    come out exactly zero rather than at rounding level.
    """
    a = as_square_matrix(m).copy()
    n = a.shape[0]
    det = 1.0
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = a[p, k]
        if pivot == 0.0:
            return 0.0
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= pivot
        mult = a[k + 1 :, k] / pivot
        a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
    return det * a[n - 1, n - 1]


def rank(vs, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of a list of vectors by row reduction.

    Each row is first divided by its largest absolute entry, so the result
    does not change when any one vector is rescaled; zero rows stay zero.
    A pivot counts when it exceeds tol.zero. Pivots are chosen by complete
    pivoting (largest entry of the remaining submatrix): multipliers then
    never exceed 1, so rounding noise stays at machine level instead of
    being amplified through a small early pivot, and perturbations at 1e-12
    of a vector's own scale classify as dependent.
    rank < len(vs) is the package-wide criterion for linear dependence.
    """
    if len(vs) == 0:
        raise ValueError("rank needs at least one vector")
    rows = as_rows(vs)
    tops = np.max(np.abs(rows), axis=1)
    nonzero = tops > 0.0
    a = rows[nonzero] / tops[nonzero, None]
    m, d = a.shape
    r = 0
    while r < min(m, d):
        sub = np.abs(a[r:, r:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= tol.zero:
            break
        if i != 0:
            a[[r, r + i]] = a[[r + i, r]]
        if j != 0:
            a[:, [r, r + j]] = a[:, [r + j, r]]
        mult = a[r + 1 :, r] / a[r, r]
        a[r + 1 :, r:] -= np.outer(mult, a[r, r:])
        r += 1
    return r
