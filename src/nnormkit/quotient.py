"""Frames, index sets, class collections, and the quotient-space norms.

A frame is an ordered linearly independent set Y = {y_1, ..., y_n}. Removing
the frame vectors named by an index set s gives a quotient of the ambient
space; the norm of a coset with representative u is the sum over j in s of
the n-norm of (u, all frame vectors except y_j). Cosets are never
materialised: every operation takes a representative, and well-definedness
is enforced by the coset-invariance check.

Every quotient-norm value and zero decision is read off the class-1 profile
of its representative (`Profile`). For the standard norm the profile is a
closed form against a factor of the frame taken once (`FrameGeometry`); any
other evaluator is called once per index the caller names.

All index sets are 1-based, here and in the JSON forms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Mapping

import numpy as np

from .linalg import (
    NON_FINITE,
    DimensionMismatch,
    SpaceConfig,
    _metric_length,
    _products,
    _index,
    _mapping,
    _row_lengths,
    _split_product,
    _tolerance,
    _volumes,
    as_vector,
    determinant,  # unused here; bench/spans.py traces this binding
    rank,
    unit_rows,
)
from .nnorm import _TINY, Axiom, AxiomReport, NNorm, Witness, _excess, _rel_gap, _severity, _trials, _worst, _zero_band

__all__ = [
    "IndexSet",
    "ClassCollection",
    "Frame",
    "FrameGeometry",
    "Profile",
    "ScaleOutOfRange",
    "class_collection",
    "class1_norm",
    "classm_norm",
    "quotient_profile",
    "coset_invariance_check",
    "quotient_norm_axioms",
    "is_quotient_zero",
    "in_kept_span",
    "standard_frame",
    "random_frame",
    "SPAN_DECISION_REL",
]

#: floor of the sampled trend rule (`Profile.floor`, `topology._decays`),
#: relative to the Hadamard scale of the evaluated tuples, and the floor the
#: benchmark's value oracle measures errors against. It is no zero rule: a
#: coset is zero by `FrameGeometry`'s slope, at `tol.zero` of the frame's
#: space.
SPAN_DECISION_REL = 1e-7


class ScaleOutOfRange(ValueError):
    """A requested class-1 Hadamard scale of a finite vector exceeds the
    double range; carries the frame index j (1-based) and log10 of that
    scale."""

    def __init__(self, index: int, log10_scale: float):
        self.index = index
        self.log10_scale = log10_scale
        whole = math.floor(log10_scale)
        super().__init__(
            f"Hadamard scale of (u, Y without y_{index}) is about {10 ** (log10_scale - whole):.2f}e+{whole}, "
            "beyond the double range"
        )


@dataclass(frozen=True, order=True)
class IndexSet:
    """Strictly increasing 1-based indices naming removed frame vectors."""

    indices: tuple[int, ...]

    def __init__(self, indices):
        idx = tuple(_index(i) for i in indices)
        if len(idx) == 0:
            raise ValueError("index set must be nonempty")
        if any(i < 1 for i in idx):
            raise ValueError(f"indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return len(self.indices)

    def complement(self, n: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, n + 1) if i not in self.indices)

    def validate_for(self, n: int) -> None:
        if self.indices[-1] > n:
            raise ValueError(f"index set {self.indices} exceeds arity {n}")

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"

    def to_json(self) -> list[int]:
        return list(self.indices)

    @classmethod
    def from_json(cls, obj) -> "IndexSet":
        return cls(obj)


@dataclass(frozen=True)
class ClassCollection:
    """All C(n, m) index sets of size m, in lexicographic order."""

    n: int
    m: int
    members: tuple[IndexSet, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "members": [s.to_json() for s in self.members]}

    @classmethod
    def from_json(cls, obj) -> "ClassCollection":
        _mapping(obj, "class collection")
        built = class_collection(obj["n"], obj["m"])
        members = tuple(IndexSet.from_json(s) for s in obj["members"])
        if members != built.members:
            raise ValueError("members do not enumerate the class collection")
        return built


def _class_shape(n, m) -> tuple[int, int]:
    """(n, m) as ints, for whole numbers 1 <= m <= n; a size that is not a
    whole number raises a ValueError naming it."""
    n, m = _index(n, "n"), _index(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return n, m


@lru_cache
def class_collection(n: int, m: int) -> ClassCollection:
    """The class-m collection for arity n, whole numbers 1 <= m <= n (3.0
    means 3, and 1.5 raises a ValueError naming it); built once per (n, m)
    and shared, which is safe because it is frozen."""
    n, m = _class_shape(n, m)
    members = tuple(IndexSet(c) for c in combinations(range(1, n + 1), m))
    return ClassCollection(n=n, m=m, members=members)


def _frame_index(j, n: int) -> int:
    """j as an int in 1..n, for a frame index; a j that is not a whole
    number raises a ValueError naming it."""
    j = _index(j, "frame index")
    if not 1 <= j <= n:
        raise ValueError(f"frame index must be in 1..{n}, got {j}")
    return j


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered linearly independent vectors anchoring the quotient norms."""

    space: SpaceConfig
    vectors: np.ndarray
    _geometries: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.vectors, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatch("frame ndim", 2, rows.ndim)
        n, d = rows.shape
        if n != self.space.arity:
            raise DimensionMismatch("frame vector count", self.space.arity, n)
        if d != self.space.dim:
            raise DimensionMismatch("frame vector length", self.space.dim, d)
        if not np.all(np.isfinite(rows)):
            raise ValueError("frame has non-finite coordinates")
        if rank(rows, self.space.tol) < n:
            raise ValueError("frame vectors are linearly dependent")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "vectors", rows)

    @property
    def n(self) -> int:
        return self.space.arity

    @property
    def dim(self) -> int:
        return self.space.dim

    def row(self, j: int) -> np.ndarray:
        """Frame vector y_j, 1-based."""
        return self.vectors[_frame_index(j, self.n) - 1]

    def without(self, j: int) -> list[np.ndarray]:
        """All frame vectors except y_j, in ascending index order."""
        j = _frame_index(j, self.n)
        return [self.vectors[i] for i in range(self.n) if i != j - 1]

    def kept_vectors(self, s: IndexSet) -> list[np.ndarray]:
        """Frame vectors whose indices are NOT in s (the removed set)."""
        s.validate_for(self.n)
        return [self.vectors[i - 1] for i in s.complement(self.n)]

    def geometry(self, cfg: SpaceConfig) -> "FrameGeometry":
        """The frame's factored geometry under the metric of `cfg`, built on
        first use and kept for the frame's lifetime, one per metric."""
        key = None if cfg.metric is None else cfg.metric.tobytes()
        geometry = self._geometries.get(key)
        if geometry is None:
            geometry = self._geometries[key] = FrameGeometry(self, cfg)
        return geometry

    def to_json(self) -> dict:
        out = {
            "dim": self.space.dim,
            "arity": self.space.arity,
            "vectors": self.vectors.tolist(),
            "tolerances": asdict(self.space.tol),
        }
        if self.space.metric is not None:
            out["metric"] = self.space.metric.tolist()
        return out

    @classmethod
    def from_json(cls, obj) -> "Frame":
        _mapping(obj, "frame")
        tol = _tolerance(obj.get("tolerances", {}))
        cfg = SpaceConfig(dim=obj["dim"], arity=obj["arity"], metric=obj.get("metric"), tol=tol)
        return cls(space=cfg, vectors=np.array(obj["vectors"], dtype=float))


def standard_frame(cfg: SpaceConfig) -> Frame:
    """The first n standard basis vectors of R^d."""
    return Frame(space=cfg, vectors=np.eye(cfg.dim)[: cfg.arity])


#: draws `random_frame` makes before it gives up
_FRAME_TRIES = 500


def random_frame(cfg: SpaceConfig, rng: np.random.Generator, min_volume: float = 0.05) -> Frame:
    """A random unit-row frame whose spanning volume is bounded away from 0.

    The volume floor keeps quotient-norm values of generic vectors well
    separated from rounding noise; the volume is `linalg._volumes` of the
    unit rows.
    """
    for _ in range(_FRAME_TRIES):
        rows = rng.uniform(-1.0, 1.0, (cfg.arity, cfg.dim))
        lengths = np.array([_metric_length(cfg, r) for r in rows])
        if np.any(lengths == 0.0):
            continue
        rows = rows / lengths[:, None]
        if _volumes(cfg, rows)[0][0] >= min_volume:
            return Frame(space=cfg, vectors=rows)
    raise ValueError(f"could not draw a frame with volume >= {min_volume} in {_FRAME_TRIES} tries")


def _check_compatible(frame: Frame, norm: NNorm) -> None:
    if norm.cfg.dim != frame.dim or norm.cfg.arity != frame.n:
        raise DimensionMismatch(
            "norm/frame space", (frame.n, frame.dim), (norm.cfg.arity, norm.cfg.dim)
        )


def _subset_sum(terms: list[float], s: IndexSet) -> float:
    """Sum of the class-1 terms named by s, added as Python floats in index
    order from 0.0: the one rule by which a class-m value or scale is read
    off a profile, or off the value list a verdict keeps in its place."""
    total = 0.0
    for j in s.indices:
        total += terms[j - 1]
    return total


def _subset_all(flags: list[bool], indices: tuple[int, ...]) -> bool:
    """Is every per-index flag named by the 1-based `indices` set? The one
    reader of zero flags over an index set's indices or a selection's
    columns, off a profile or off flags combined from several."""
    for j in indices:
        if not flags[j - 1]:
            return False
    return True


@dataclass(frozen=True, eq=False, init=False)
class Profile:
    """The class-1 quotient norms of one vector u against a frame.

    Entry j-1 of `values` is the n-norm of (u, Y without y_j), entry j-1 of
    `scales` is that tuple's Hadamard scale (the product of its metric
    lengths), and entry j-1 of `zero` says dist(u, span(Y without y_j)) <=
    tol.zero * |u|, a distance rule, read as value <= tol.zero * V_j *
    scale off `FrameGeometry`'s slope. The rank oracle `in_kept_span` reads
    a pivot of `rank` instead, so near the threshold the two can disagree
    (at tol.zero = 1e-7, on some (5, 5) frames). A class-m
    norm is the sum of the entries named by its index set. Entries a generic
    evaluation skipped hold NaN (and False).

    The one zero rule is per index: a sum of nonnegative class-1 norms
    vanishes exactly when each does, so `is_zero(s)` needs every flag over s.

    Sums over s add Python floats, in index order from 0.0 (`_subset_sum`);
    the zero flags are read the same way (`_subset_all`). The constructor
    takes the three arrays as given, makes them read-only, as
    `Frame.vectors` is, and reads their Python lists once, when the profile
    is made, so the lists cannot drift from the arrays. A copy or a pickle
    goes through the constructor too.
    """

    values: np.ndarray
    scales: np.ndarray
    zero: np.ndarray

    def __init__(self, values: np.ndarray, scales: np.ndarray, zero: np.ndarray):
        for array in (values, scales, zero):
            array.setflags(False)  # write=False, passed by position
        state = self.__dict__
        state["values"], state["scales"], state["zero"] = values, scales, zero
        state["_value_list"] = values.tolist()
        state["_scale_list"] = scales.tolist()
        state["_zero_list"] = zero.tolist()

    def __reduce__(self):
        return type(self), (self.values, self.scales, self.zero)

    def value(self, s: IndexSet) -> float:
        """classm_norm(u, s): the sum of the class-1 values over s."""
        return _subset_sum(self._value_list, s)

    def scale(self, s: IndexSet) -> float:
        """Sum of the Hadamard scales over s; bounds value(s) from above."""
        return _subset_sum(self._scale_list, s)

    def terms(self, s: IndexSet) -> list[tuple[float, float]]:
        """(value, scale) of each class-1 term over s, in index order."""
        values, scales = self._value_list, self._scale_list
        return [(values[j - 1], scales[j - 1]) for j in s.indices]

    def floor(self, s: IndexSet) -> float:
        """Tolerance of the sampled trend rule; not a zero rule."""
        return SPAN_DECISION_REL * self.scale(s)

    def is_zero(self, s: IndexSet) -> bool:
        """Is every class-1 term over s classified as zero on its own?"""
        return _subset_all(self._zero_list, s.indices)


class FrameGeometry:
    """Closed-form class-1 profiles against one frame under one metric.

    With the metric M = L L^T (L = I for the dot product), the frame rows
    are whitened to L^T y_i, of lengths l_i, and normalised to unit rows e_i.
    A complete QR factor [e_1 ... e_n] = Q R is taken once. A whitened
    vector splits as L^T u = sum_i c_i e_i + u_perp, and then

        ||u, Y without y_j|| = P_j * hypot(V_j * |u_perp|, V * c_j),

    where V = prod |r_ii| is the volume of the unit rows, V_j = V times the
    length of row j of R^-1 is the volume of the unit rows without e_j, and
    P_j is the product of the l_i with i != j. Squared, this is
    det G_(-j) |u_perp|^2 + c_j^2 det G (Gunawan & Mashadi, "On n-normed
    spaces", IJMMS 27, 2001): all n values come from one small product
    instead of n Gram determinants, and no Gram matrix is ever formed.

    The value is P_j * V_j times the distance of L^T u from the span of the
    other whitened rows. So the one zero rule, that distance at most
    tol.zero * |L^T u| (tol of the frame's space, as `in_kept_span` reads
    it), is value_j <= slope_j * |L^T u| with slope_j = tol.zero * P_j * V_j,
    taken once here and read by the generic path too.

    The part of u off the frame's span, u - sum_i c_i y_i / l_i in u's own
    coordinates, is one more matrix product (`_complement`), which gives
    `_escape_direction` its directions without a Gram solve, from unit rows
    however tiny or huge the frame rows are.

    A vector is scaled by a power of two to a largest entry in [0.5, 1)
    before the product and scaled back after it, so values stay finite and
    accurate wherever the true value is representable. V is the
    `linalg._products` of the |r_ii|. Each P_j is kept as a double times
    2**shift_j (`linalg._split_product`, the split that `_products`
    rounds), with shift_j = 0 wherever the product is a normal double, so a
    frame whose P_j leaves the double range still gives every representable
    value. A requested column whose scale is not representable raises
    `ScaleOutOfRange`; any other such column is NaN, as a column the
    generic path does not evaluate. Scaled values and scales stay below a
    ceiling taken once per frame, so the exact check, which also applies
    the shifts, runs only for a vector whose power of two could carry the
    ceiling past the double range, or on a frame with a shift.

    The vector's shape is the caller's to check. Its finiteness is decided
    here, from values the profile needs anyway: an infinite entry (or a NaN
    the scan for the largest entry starts on) fails the scan, and any other
    NaN makes the whitened length NaN. Either raises the ValueError that
    `as_vector` raises, so a computed vector that overflowed is named as
    such instead of giving NaN values.

    `profiles` takes a whole stack of vectors through the same steps, with
    one batched product, `(K[None] @ U[:, :, None])[:, :, 0]`, whose rows
    have the bits of `K @ u` (np.einsum's do not), and gives each row the
    profile `profile` gives it. The axiom and coset loops profile their
    samples so. The single-vector `profile` stays for the verdicts, which
    profile one to six vectors a call, where a stack costs more than it
    saves.
    """

    def __init__(self, frame: Frame, cfg: SpaceConfig):
        n = frame.n
        units, lengths = unit_rows(cfg, frame.vectors)
        q, r = np.linalg.qr(units.T, mode="complete")
        r_inv = np.linalg.inv(r[:n])
        volume = _products(n, np.abs(np.diagonal(r)).tolist())[0]
        rotate = q.T if cfg.whitening is None else q.T @ cfg.whitening
        coordinates = r_inv @ rotate[:n]  # u -> c
        # one product gives V * c (first n rows) and Q^T L^T u (last d rows)
        self._kernel = np.vstack([volume * coordinates, rotate])
        self._complement = np.eye(cfg.dim) - (frame.vectors / np.array(lengths)[:, None]).T @ coordinates
        self._n = n
        self._minor_volumes = volume * np.sqrt(np.sum(r_inv * r_inv, axis=1))
        others, shifts = zip(*(_split_product(lengths[:j] + lengths[j + 1 :]) for j in range(n)))
        self._others = np.array(others)
        self._shifts = np.array(shifts)
        self._zero_slope = frame.space.tol.zero * self._others * self._minor_volumes
        # the generic path reads these per column, as Python floats and ints
        self._other_list, self._shift_list = list(others), list(shifts)
        self._slope_list = self._zero_slope.tolist()
        self._rows = list(frame.vectors)
        # a scaled vector has entries below 1, so its whitened length is below
        # sqrt(d * trace(M)); each scaled value or scale is at most P_j times
        # that, and the factor 4 covers the rounding of any frame whose
        # condition number is far below 1 / eps; a frame with a shift always
        # takes the exact path
        bound = 4.0 * math.sqrt(cfg.dim * float(np.trace(cfg.metric_matrix())))
        self._safe_exponent = -math.inf if any(shifts) else 1024 - math.frexp(max(others) * bound)[1]

    def profile(self, u: np.ndarray, columns=None) -> Profile:
        """Values, scales and zero flags of every class-1 norm of u; columns
        (1-based, all n when None) are the ones whose range is checked."""
        coords = u.tolist()
        top = max(map(abs, coords))
        if not top < math.inf:
            raise ValueError(NON_FINITE)
        if not any(coords):  # all zero; a NaN entry is truthy
            zeros = np.zeros(self._n)
            return Profile(zeros, zeros, zeros == 0.0)
        exponent = math.frexp(top)[1]
        y = (self._kernel @ np.ldexp(u, -exponent)).tolist()
        n = self._n
        length = math.hypot(*y[n:])
        if not length < math.inf:
            raise ValueError(NON_FINITE)
        values = self._others * np.hypot(self._minor_volumes * math.hypot(*y[2 * n :]), y[:n])
        scales = self._others * length
        zero = values <= self._zero_slope * length
        if exponent > self._safe_exponent:
            exponent = self._shifts + exponent
            _check_range(values, scales, exponent, range(1, n + 1) if columns is None else columns)
        return Profile(np.ldexp(values, exponent), np.ldexp(scales, exponent), zero)

    def profiles(self, us: np.ndarray, columns=None) -> list[Profile]:
        """`profile` of each row of a (B, d) array, in order, bit for bit:
        per row the power of two, the whitened and perpendicular lengths
        (math.hypot) and the exact range check, over the whole stack one
        batched product and the elementwise values, scales and zero flags.
        A stack with a non-finite entry goes row by row through `profile`,
        so the first bad row raises what it raises there."""
        if not np.isfinite(us).all():
            return [self.profile(u, columns) for u in us]
        n = self._n
        tops = np.abs(us).max(axis=1).tolist()
        exponents = np.frexp(tops)[1].astype(np.int64)
        y = (self._kernel[None] @ np.ldexp(us, -exponents[:, None])[:, :, None])[:, :, 0]
        rows = y.tolist()
        lengths = np.array([math.hypot(*row[n:]) for row in rows])[:, None]
        perps = np.array([math.hypot(*row[2 * n :]) for row in rows])[:, None]
        values = self._others * np.hypot(self._minor_volumes * perps, y[:, :n])
        scales = self._others * lengths
        zero = values <= self._zero_slope * lengths
        powers = np.repeat(exponents[:, None], n, axis=1)
        for i, exponent in enumerate(exponents.tolist()):
            # an all-zero row's values and scales are +0.0 and its flags
            # True, as `profile` gives them, and no shift moves them
            if exponent > self._safe_exponent and tops[i]:
                powers[i] += self._shifts
                _check_range(values[i], scales[i], powers[i], range(1, n + 1) if columns is None else columns)
        return list(map(Profile, np.ldexp(values, powers), np.ldexp(scales, powers), zero))


def _check_range(values: np.ndarray, scales: np.ndarray, shifts: np.ndarray, columns) -> None:
    """Every value and scale times 2**shift must be a finite double, as
    ldexp would give it: raise ScaleOutOfRange for the first requested
    column (1-based) where one is not, and set any other such column to NaN
    in place."""
    for j, (value, scale, shift) in enumerate(zip(values.tolist(), scales.tolist(), shifts.tolist())):
        if math.frexp(max(value, scale))[1] + shift > 1024:
            if j + 1 in columns:
                raise ScaleOutOfRange(j + 1, math.log10(scale) + shift * math.log10(2.0))
            values[j] = scales[j] = math.nan


def _generic_profile(frame: Frame, norm: NNorm, u: np.ndarray, columns) -> Profile:
    """One injected-norm evaluation per requested column; NaN elsewhere.

    The evaluator receives (u, the frame rows without y_j) as a list of
    1-D arrays. The scales follow the closed form's rule: the length of u,
    taken once as `unit_rows` takes it (`linalg._row_lengths`), times the
    frame geometry's product of the other rows' lengths, so both paths
    share one scale and neither squares a length on the way. That length
    also decides u's finiteness (under a metric, a check before u is
    whitened), so a non-finite u raises before any call. Each requested
    column takes, in order, its range check (a scale beyond the double
    range raises `ScaleOutOfRange` before the column's call; the zero
    vector's scale, 0, is in range whatever the shift), its scale,
    the evaluator call (whose value `NNorm.__call__` has converted to a
    float) and its zero flag, on Python floats read off lists the frame
    geometry holds; the profile's arrays are built once at the end.

    The zero flag is value <= slope_j * |u| with the Gram slope
    `FrameGeometry._zero_slope`, the standard norm's threshold. For another
    n-norm it is off by that norm's ratio to the standard one: for
    Gunawan's l^p norm with p != 2, by at most C(d, n)**|1/p - 1/2|.
    """
    geometry = frame.geometry(norm.cfg)
    length = _row_lengths(norm.cfg, u[None, :])[1][0]
    others, shifts, slopes, rows = geometry._other_list, geometry._shift_list, geometry._slope_list, geometry._rows
    values, scales, zero = [math.nan] * frame.n, [math.nan] * frame.n, [False] * frame.n
    for j in columns:
        scale, shift = others[j - 1] * length, shifts[j - 1]
        if not scale < math.inf or (scale and math.frexp(scale)[1] + shift > 1024):
            raise ScaleOutOfRange(j, math.log10(others[j - 1]) + math.log10(length) + shift * math.log10(2.0))
        scales[j - 1] = math.ldexp(scale, shift)
        values[j - 1] = value = norm([u] + rows[: j - 1] + rows[j:])
        zero[j - 1] = value <= math.ldexp(slopes[j - 1] * length, shift)
    return Profile(np.array(values), np.array(scales), np.array(zero))


def _profile(frame: Frame, norm: NNorm, u: np.ndarray, columns) -> Profile:
    """Class-1 profile of a 1-D float array of the frame's dimension.

    The private entry behind `quotient_profile`, for vectors computed from
    inputs that were checked already: the shapes, the norm's compatibility
    with the frame and `columns` (sorted 1-based indices) are the caller's
    to check; a non-finite u still raises. The closed form holds for the
    standard norm only, which a standard-kind `NNorm` is by construction;
    any other evaluator is called on exactly the tuples the requested
    columns name.
    """
    if norm.kind == "standard":
        return frame.geometry(norm.cfg).profile(u, columns)
    return _generic_profile(frame, norm, u, columns)


def _stacked_profiles(frame: Frame, norm: NNorm, us: list[np.ndarray], columns) -> list[Profile]:
    """`_profile` of each vector of `us`, in order, on the same terms: the
    standard kind's from one `FrameGeometry.profiles` stack, any other
    evaluator's one vector at a time, so that it sees the calls `_profile`
    would make, in the same order."""
    if norm.kind == "standard":
        return frame.geometry(norm.cfg).profiles(np.asarray(us), columns)
    return [_generic_profile(frame, norm, u, columns) for u in us]


def quotient_profile(frame: Frame, norm: NNorm, u, columns=None) -> Profile:
    """Class-1 profile of u under the norm's own metric.

    The standard norm reads all n columns off the frame's geometry. Other
    evaluators are called once per index in `columns` (1-based; all n when
    None), and the other entries are NaN. An index that is not a whole
    number raises a ValueError naming it; 2.0 means 2.
    """
    _check_compatible(frame, norm)
    u = as_vector(u, frame.dim)
    if columns is None:
        columns = range(1, frame.n + 1)
    else:
        columns = sorted({_frame_index(j, frame.n) for j in columns})
    return _profile(frame, norm, u, columns)


def class1_norm(frame: Frame, norm: NNorm, u, j: int) -> float:
    """Quotient norm of the coset of u after removing y_j: the n-norm of
    (u, y_1, ..., y_{j-1}, y_{j+1}, ..., y_n). A j that is not a whole
    number raises a ValueError naming it."""
    j = _index(j, "frame index")
    return float(quotient_profile(frame, norm, u, (j,)).values[j - 1])


def classm_norm(frame: Frame, norm: NNorm, u, s: IndexSet) -> float:
    """Quotient norm after removing the frame vectors named by s: by
    definition the sum of the class-1 norms over the indices of s."""
    return quotient_profile(frame, norm, u, s).value(s)


def is_quotient_zero(frame: Frame, norm: NNorm, u, s: IndexSet) -> bool:
    """Is the coset of u zero after removing s? True when, for every j in
    s, u lies within tol.zero * |u| of the span of the frame without y_j
    (`Profile.is_zero`): a distance rule. `in_kept_span` reads a pivot of
    `rank` instead, and near the threshold the two can disagree."""
    return quotient_profile(frame, norm, u, s).is_zero(s)


def in_kept_span(frame: Frame, u, s: IndexSet) -> bool:
    """Rank-oracle test: is u in the span of the frame vectors NOT in s?

    This is membership of the coset of zero, i.e. the condition under which
    the quotient norm of u vanishes.
    """
    s.validate_for(frame.n)
    u = as_vector(u, frame.dim)
    kept = frame.kept_vectors(s)
    return rank(kept + [u], frame.space.tol) == len(kept)


def coset_invariance_check(frame: Frame, norm: NNorm, u, s: IndexSet, coeffs: Mapping[int, float]) -> tuple[bool, float]:
    """Well-definedness on cosets: shifting u by any combination of the KEPT
    frame vectors must not change the quotient norm.

    coeffs must be keyed by exactly the complement of s (1-based) and be
    finite; a shifted u that overflows raises the ValueError a non-finite
    vector raises. Returns (passed, discrepancy): each class-1 term over s
    is compared as `check_axioms` compares values (`nnorm._rel_gap` against
    the larger of the term's two Hadamard scales, in the zero band of the
    frame's space), and the discrepancy is the worst term's, a NaN term
    ranking worst (`nnorm._severity`), so that it fails wherever it sits.

    This is the one-row public boundary of `_coset_gaps`, which the CLI's
    quotient suite calls on all its trials at once.
    """
    _check_compatible(frame, norm)
    s.validate_for(frame.n)
    u = as_vector(u, frame.dim)
    complement = s.complement(frame.n)
    if set(coeffs.keys()) != set(complement):
        raise ValueError(f"coefficients must be indexed by {complement}, got {sorted(coeffs.keys())}")
    coefficients = {i: float(coeffs[i]) for i in complement}
    if not all(map(math.isfinite, coefficients.values())):
        raise ValueError(f"coset coefficients must be finite, got {coefficients}")
    gap = _coset_gaps(frame, norm, s, u[None, :], np.array([list(coefficients.values())]))[0]
    return gap <= frame.space.tol.rel, gap


def _coset_gaps(frame: Frame, norm: NNorm, s: IndexSet, us: np.ndarray, coefficients: np.ndarray) -> list[float]:
    """The `coset_invariance_check` discrepancy of each row of a (B, d)
    array, shifted by its row of a (B, |complement of s|) array times the
    kept frame vectors, in index order; a complement may be empty, and then
    the shifted rows are the rows themselves. The inputs are the caller's
    to check.

    Every row and its shifted row are profiled in one stack, each row
    before its shifted one, as the one-row check profiles them.
    """
    shifted = us
    with np.errstate(over="ignore", invalid="ignore"):
        for k, i in enumerate(s.complement(frame.n)):
            shifted = shifted + coefficients[:, k, None] * frame.vectors[i - 1]
    pairs = np.empty((2 * len(us), frame.dim))
    pairs[0::2], pairs[1::2] = us, shifted
    profiles = iter(_stacked_profiles(frame, norm, pairs, s))
    band = _zero_band(frame.space)
    gaps = []
    for here, moved in zip(profiles, profiles):
        terms = zip(here.terms(s), moved.terms(s))
        term_gaps = [_rel_gap(base, value, max(b_scale, v_scale), band) for (base, b_scale), (value, v_scale) in terms]
        gaps.append(max(term_gaps, key=_severity))
    return gaps


def _adversarial_member(frame: Frame, s: IndexSet, rng: np.random.Generator) -> np.ndarray:
    kept = frame.kept_vectors(s)
    if not kept:
        return np.zeros(frame.dim)
    coeffs = rng.uniform(-1.0, 1.0, len(kept))
    return np.array(kept).T @ coeffs


def _escape_direction(frame: Frame, s: IndexSet, rng: np.random.Generator) -> np.ndarray:
    """A unit vector whose quotient norm is guaranteed at frame-volume scale:
    orthogonal to the whole frame span when the dimension allows (the frame
    geometry's complement part of a normal draw), otherwise along a removed
    frame vector."""
    cfg = frame.space
    if frame.dim > frame.n:
        for _ in range(200):
            perp = frame.geometry(cfg)._complement @ rng.normal(size=frame.dim)
            length = _metric_length(cfg, perp)
            if length >= 0.1:
                return perp / length
    j = int(rng.choice(list(s)))
    y = frame.row(j)
    # a frame row may be tiny or huge: its length is taken as `unit_rows`
    # takes it, never through its square
    return y / _row_lengths(cfg, y[None, :])[1][0]


def quotient_norm_axioms(frame: Frame, norm: NNorm, s: IndexSet, trials: int, seed: int) -> list[AxiomReport]:
    """Verify that u -> classm_norm(u, s) is a norm on the quotient:
    homogeneity, the triangle inequality, and definiteness in both
    directions against the rank membership oracle, on `trials` samples each
    (a whole number >= 1, as for `check_axioms`).

    Definiteness probes mix exact members of the kept span with perturbed
    ones at 1e-3 and 1e-6; resolving those reliably needs a reasonably
    conditioned frame (see random_frame's volume floor). The zero decision
    is `Profile.is_zero`, at the tol.zero of the frame's space.

    Homogeneity and the triangle inequality compare values as `check_axioms`
    does, one class-1 term at a time: for each j in s, `nnorm._rel_gap` (or
    `nnorm._excess` for the triangle) of the term's values against the
    term's own Hadamard scale, in the zero band sqrt(tol.zero) of the
    frame's space. Each term's comparison is one decision, and it fails
    unless gap <= tol.rel, so a NaN value or gap fails. The witness details
    carry the class-m sums.

    Witnesses are selected as in `check_axioms`: each check hands those of
    its failing decisions, in draw order, to `nnorm._worst`, which reports
    the first with the largest discrepancy, NaN ranking as inf. So a failing
    report carries the worst term's discrepancy, and forward definiteness,
    whose witnesses all carry inf, reports its first failing sample. The
    four checks draw from one generator, in the order of the reports.

    Each check draws its samples, then profiles them as one stack
    (`_stacked_profiles`): the standard norm through one
    `FrameGeometry.profiles` product, bit for bit the per-vector profiles,
    and an injected evaluator vector by vector, in the order in which a
    check profiling each sample as it is drawn would call it.

    An injected evaluator built as the square root of the LU `determinant`
    of `gram_matrix` carries noise near sqrt(eps) of the scale on members of
    the kept span. Over 632 reports per axiom and setting (shapes (2,2),
    (3,3), (3,5), (5,5) and (5,6), frames drawn from seeds 1-8 with the
    sampler's seed, every s, 6 trials) it fails definiteness_backward in 532
    at the default tol.zero = 1e-9, in 460 at 1e-8, and at 1e-7 only
    definiteness_forward, in 11. The QR-based evaluators (the standard norm,
    and `standard_norm` injected) fail none at 1e-9 and 1e-8, and
    definiteness_forward in 12 at 1e-7. Compared as class-m sums with no
    zero band, the LU evaluator also failed absolute_homogeneity in 223 at
    every tol.zero: the first sample is then often parallel to y_1, so a
    sum holds rounding noise next to a large term. So a Gram-determinant
    evaluator should run with tol.zero of about 1e-7.
    """
    trials = _trials(trials)
    _check_compatible(frame, norm)
    s.validate_for(frame.n)
    tol = frame.space.tol
    band = _zero_band(frame.space)
    rng = np.random.default_rng(seed)

    def profiles(us):
        return iter(_stacked_profiles(frame, norm, us, s))

    def homogeneity():
        samples = [(rng.uniform(-1.0, 1.0, frame.dim), float(rng.uniform(-10.0, 10.0))) for _ in range(trials)]
        stacked = profiles([v for u, alpha in samples for v in (u, alpha * u)])
        for (u, alpha), here, moved in zip(samples, stacked, stacked):
            for (value, _), (base, scale) in zip(moved.terms(s), here.terms(s)):
                gap = _rel_gap(value, abs(alpha) * base, abs(alpha) * scale, band)
                if not gap <= tol.rel:
                    yield Witness((u,), {"alpha": alpha, "value": moved.value(s), "base": here.value(s)}, gap)

    def triangle():
        samples = [(rng.uniform(-1.0, 1.0, frame.dim), rng.uniform(-1.0, 1.0, frame.dim)) for _ in range(trials)]
        stacked = profiles([w for u, v in samples for w in (u, v, u + v)])
        for (u, v), pu, pv, psum in zip(samples, stacked, stacked, stacked):
            terms = zip(pu.terms(s), pv.terms(s), psum.terms(s))
            for (u_value, u_scale), (v_value, v_scale), (lhs, sum_scale) in terms:
                violation = _excess(lhs, u_value + v_value, max(u_scale, v_scale, sum_scale), band)
                if not violation <= tol.rel:
                    yield Witness((u, v), {"lhs": psum.value(s), "rhs": pu.value(s) + pv.value(s)}, violation)

    def forward():
        # norm ~ 0 must imply membership of the kept span
        us = []
        for t in range(trials):
            if t % 2 == 0:
                us.append(_adversarial_member(frame, s, rng))
            else:
                delta = 1e-6 if t % 4 == 1 else 1e-3
                us.append(_adversarial_member(frame, s, rng) + delta * _escape_direction(frame, s, rng))
        for u, here in zip(us, profiles(us)):
            if here.is_zero(s) and not in_kept_span(frame, u, s):
                yield Witness((u,), {"value": here.value(s)}, math.inf)

    def backward():
        # members of the kept span must evaluate to zero
        us = [_adversarial_member(frame, s, rng) for _ in range(trials)]
        for u, here in zip(us, profiles(us)):
            if not here.is_zero(s):
                yield Witness((u,), {"value": here.value(s)}, here.value(s) / max(here.scale(s), _TINY))

    reports = []
    for axiom, failing in [
        (Axiom.ABSOLUTE_HOMOGENEITY, homogeneity()),
        (Axiom.TRIANGLE_INEQUALITY, triangle()),
        (Axiom.DEFINITENESS_FORWARD, forward()),
        (Axiom.DEFINITENESS_BACKWARD, backward()),
    ]:
        witness = _worst(failing)
        reports.append(AxiomReport(axiom, witness is None, trials, witness))
    return reports
