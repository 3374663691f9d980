"""The Gram-determinant norm on n-tuples of vectors, and a seeded checker
for the defining axioms that works against any injected evaluator.

A value of the standard norm is sqrt(det(Gram)), the volume of the
parallelepiped the vectors span; it is taken from a QR factor of the unit
whitened vectors (`linalg._volumes`), so the Gram matrix is never formed.

The checker evaluates each batch of tuples at once. For the standard kind,
one stacked QR over the batch gives every value, bit for bit the value
`standard_norm` gives the tuple alone; any other evaluator is called once
per tuple, in batch order. The sampler's volume gate reads the same kernel.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DimensionMismatch,
    SpaceConfig,
    _metric_length,
    _products,
    _volumes,
    as_rows,
    determinant,  # unused here; bench/spans.py traces this binding
    rank,
    unit_rows,
)

__all__ = [
    "NNorm",
    "Axiom",
    "Witness",
    "AxiomReport",
    "standard_norm",
    "standard_nnorm",
    "check_axioms",
    "shift_invariance_check",
]

_TINY = 1e-300  # guards denominators; never meaningful as a norm value


def standard_norm(cfg: SpaceConfig, vs) -> float:
    """Standard n-norm: square root of the Gram determinant of the tuple.

    Requires exactly cfg.arity finite vectors of dimension cfg.dim, checked
    as one array. The value is the volume of the parallelepiped the vectors
    span, and is zero exactly when they are linearly dependent.

    The value is `linalg._volumes` of the checked tuple: the product of the
    metric lengths times |prod r_ii| of one QR factor of the unit whitened
    vectors, 0.0 when a vector is zero.
    """
    if len(vs) != cfg.arity:
        raise DimensionMismatch("vector count", cfg.arity, len(vs))
    return _volumes(cfg, as_rows(vs, cfg.dim))[0][0]


def _evaluate(norm: NNorm, stack: np.ndarray) -> tuple[list, list[float]]:
    """Values of `norm` on each tuple of a checked (B, n, d) stack, in
    order, and the Hadamard scale of each tuple.

    The standard kind takes all values from one `_volumes` call on the
    stack, bit for bit what `standard_norm` gives each tuple alone; any other
    kind takes only the row lengths (no QR) and is called once per tuple, in
    order, with the tuple as a list of rows. The scales are one `_products`
    call on the stack's lengths, bit for bit what `hadamard_scale` gives each
    tuple alone.
    """
    if norm.kind == "standard":
        values, lengths = _volumes(norm.cfg, stack)
    else:
        lengths = unit_rows(norm.cfg, stack)[1]
        values = [norm(list(vs)) for vs in stack]
    return values, _products(norm.cfg.arity, lengths)


@dataclass(frozen=True)
class NNorm:
    """An n-norm candidate: a total evaluator on cfg.arity vectors.

    Only the standard (Gram determinant) evaluator ships built in; custom
    evaluators can be injected so the axiom checker is reusable against
    deliberately broken or exotic norms.
    """

    cfg: SpaceConfig
    kind: str
    evaluator: Callable[[Sequence[np.ndarray]], float]

    def __call__(self, vs) -> float:
        return self.evaluator(vs)


def standard_nnorm(cfg: SpaceConfig) -> NNorm:
    return NNorm(cfg=cfg, kind="standard", evaluator=lambda vs: standard_norm(cfg, vs))


class Axiom(Enum):
    NONNEGATIVITY = "nonnegativity"
    DEFINITENESS_FORWARD = "definiteness_forward"  # norm ~ 0  =>  dependent
    DEFINITENESS_BACKWARD = "definiteness_backward"  # dependent  =>  norm ~ 0
    PERMUTATION_INVARIANCE = "permutation_invariance"
    ABSOLUTE_HOMOGENEITY = "absolute_homogeneity"
    TRIANGLE_INEQUALITY = "triangle_inequality"
    SHIFT_INVARIANCE = "shift_invariance"


@dataclass(frozen=True)
class Witness:
    """A concrete failing input: the tuple, any extra parameters, and the
    measured discrepancy that exceeded the tolerance."""

    vectors: tuple
    detail: dict
    discrepancy: float


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    passed: bool
    trials: int
    witness: Witness | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("failing report must carry a witness")


class _Batch:
    """Drawn tuples as the sampler made them (witnesses carry them), their
    construction labels, and the tuples stacked as one (B, n, d) array.

    `base(norm)` evaluates the batch once per norm, so every check that
    reads the batch shares its values and scales.
    """

    def __init__(self, tuples: list[list[np.ndarray]], labels: list[str] | None = None):
        self.tuples = tuples
        self.labels = labels
        self.stack = np.array(tuples)
        self._base = None

    def base(self, norm: NNorm) -> tuple[list, list[float]]:
        if self._base is None or self._base[0] is not norm:
            self._base = (norm, _evaluate(norm, self.stack))
        return self._base[1]


class _Sampler:
    """Seeded tuple generator with control over (near-)dependence.

    Dependence probes are built from unit-length vectors whose spanning
    volume is kept away from zero, so the gap between "dependent up to
    rounding" and "independent at perturbation delta" stays several orders
    of magnitude wide in double precision.
    """

    #: perturbation sizes probing the tolerance boundary
    DEEP_DELTAS = (1e-3, 1e-6, 1e-12)
    #: largest perturbation only: relative comparisons at tol.rel cannot
    #: resolve anything smaller without drowning in determinant rounding
    MILD_DELTA = 1e-3
    MIN_VOLUME = 0.3
    MIN_PERP = 0.3

    def __init__(self, cfg: SpaceConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng

    def generic(self) -> list[np.ndarray]:
        return list(self.rng.uniform(-1.0, 1.0, (self.cfg.arity, self.cfg.dim)))

    def _unit(self, v: np.ndarray) -> np.ndarray:
        return v / _metric_length(self.cfg, v)

    def _conditioned_units(self, count: int) -> list[np.ndarray]:
        if count == 0:
            return []
        for _ in range(200):
            rows = [self._unit(self.rng.normal(size=self.cfg.dim)) for _ in range(count)]
            if _volumes(self.cfg, np.array(rows))[0][0] >= self.MIN_VOLUME:
                return rows
        return rows  # pathological metric; keep the last draw

    def _insert(self, rows: list[np.ndarray], special: np.ndarray) -> tuple[list[np.ndarray], int]:
        slot = int(self.rng.integers(0, len(rows) + 1))
        out = rows[:slot] + [special] + rows[slot:]
        return out, slot

    def dependent(self) -> list[np.ndarray]:
        n = self.cfg.arity
        kind = int(self.rng.integers(0, 3))
        if kind == 0 and n >= 2:  # exact combination of the others
            others = self._conditioned_units(n - 1)
            combo = np.array(others).T @ self.rng.uniform(-0.75, 0.75, n - 1)
            if _metric_length(self.cfg, combo) > 1e-3:
                combo = self._unit(combo)
            tup, _ = self._insert(others, combo)
            return tup
        if kind == 1 and n >= 2:  # duplicated vector
            others = self._conditioned_units(n - 1)
            dup = others[int(self.rng.integers(0, n - 1))].copy()
            tup, _ = self._insert(others, dup)
            return tup
        # zero vector
        others = self._conditioned_units(n - 1)
        tup, _ = self._insert(others, np.zeros(self.cfg.dim))
        return tup

    def near_dependent(self, delta: float) -> list[np.ndarray]:
        n = self.cfg.arity
        if n == 1:
            return [delta * self._conditioned_units(1)[0]]
        others = self._conditioned_units(n - 1)
        combo = np.array(others).T @ self.rng.uniform(-0.75, 0.75, n - 1)
        if _metric_length(self.cfg, combo) > 1e-3:
            combo = self._unit(combo)
        volume = _volumes(self.cfg, np.array(others))[0][0]
        for _ in range(200):
            w = self._unit(self.rng.normal(size=self.cfg.dim))
            # the distance of w from the others' span is the ratio of the
            # volumes with and without it
            if _volumes(self.cfg, np.array(others + [w]))[0][0] >= self.MIN_PERP * volume:
                break
        tup, _ = self._insert(others, combo + delta * w)
        return tup

    def equality_batch(self, trials: int) -> _Batch:
        """Tuples for value-comparison checks: generic plus mild perturbation."""
        out = []
        for t in range(trials):
            if t % 7 == 6:
                out.append(self.near_dependent(self.MILD_DELTA))
            else:
                out.append(self.generic())
        return _Batch(out)

    def dependent_batch(self, trials: int) -> _Batch:
        """Exactly dependent tuples, for the zero-value check."""
        return _Batch([self.dependent() for _ in range(trials)], ["dependent"] * trials)

    def boundary_batch(self, trials: int) -> _Batch:
        """Tuples for threshold checks, labelled by construction."""
        tuples, labels = [], []
        for t in range(trials):
            r = t % 5
            if r == 0:
                tuples.append(self.dependent())
                labels.append("dependent")
            elif r == 1:
                tuples.append(self.generic())
                labels.append("generic")
            else:
                delta = self.DEEP_DELTAS[r - 2]
                tuples.append(self.near_dependent(delta))
                labels.append(f"perturbed:{delta:g}")
        return _Batch(tuples, labels)


def _check_nonnegativity(norm, batch, rng):
    worst = None
    for vs, label, value in zip(batch.tuples, batch.labels, batch.base(norm)[0]):
        if not (math.isfinite(value) and value >= -norm.cfg.tol.zero):
            gap = -value if math.isfinite(value) else math.inf
            if worst is None or gap > worst.discrepancy:
                worst = Witness(tuple(vs), {"construction": label, "value": value}, gap)
    return worst


def _check_definiteness_forward(norm, batch, rng):
    # whenever the value collapses to zero scale, the tuple must be dependent
    cfg = norm.cfg
    worst = None
    for vs, label, value, scale in zip(batch.tuples, batch.labels, *batch.base(norm)):
        if value <= cfg.tol.zero * scale:
            if rank(vs, cfg.tol) == cfg.arity:
                witness = Witness(tuple(vs), {"construction": label, "value": value}, math.inf)
                worst = witness
    return worst


def _check_definiteness_backward(norm, batch, rng):
    # dependent tuples must evaluate to zero, inside the zero band
    band = _zero_band(norm.cfg)
    worst = None
    for vs, label, value, scale in zip(batch.tuples, batch.labels, *batch.base(norm)):
        allowed = band * scale
        if value > allowed:
            gap = value - allowed
            if worst is None or gap > worst.discrepancy:
                worst = Witness(tuple(vs), {"construction": label, "value": value}, gap)
    return worst


def _zero_band(cfg: SpaceConfig) -> float:
    # an injected evaluator may take its value as the square root of a Gram
    # determinant, whose rounding sits where tol.zero lives, so values below
    # sqrt(tol.zero) * scale are indistinguishable from zero there. The band
    # stays for those evaluators; the built-in QR volume does not need it
    return math.sqrt(cfg.tol.zero)


def _rel_gap(a: float, b: float, scale: float, band: float) -> float:
    """Relative discrepancy of two norm values of comparable scale.

    Values inside the zero band compare equal: on (near-)dependent tuples the
    computed norm is pure rounding noise, and the definiteness axiom says
    both sides vanish there anyway.
    """
    if max(abs(a), abs(b)) <= band * scale:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), scale, _TINY)


def _check_permutation(norm, batch, rng):
    cfg = norm.cfg
    n = cfg.arity
    band = _zero_band(cfg)
    bases, scales = batch.base(norm)
    if n <= 4:
        perms = [list(itertools.permutations(range(n)))] * len(batch.tuples)
    else:
        perms = [[tuple(rng.permutation(n)) for _ in range(8)] for _ in batch.tuples]
    rows = np.arange(len(perms))[:, None, None]
    values = iter(_evaluate(norm, batch.stack[rows, np.array(perms)].reshape(-1, n, cfg.dim))[0])
    worst = None
    for vs, base, scale, tuple_perms in zip(batch.tuples, bases, scales, perms):
        for perm, value in zip(tuple_perms, values):
            gap = _rel_gap(value, base, scale, band)
            if gap > cfg.tol.rel and (worst is None or gap > worst.discrepancy):
                worst = Witness(tuple(vs), {"permutation": perm, "value": value, "base": base}, gap)
    return worst


def _check_homogeneity(norm, batch, rng):
    cfg = norm.cfg
    band = _zero_band(cfg)
    bases, scales = batch.base(norm)
    alphas = [float(rng.uniform(-10.0, 10.0)) for _ in batch.tuples]
    scaled = batch.stack.copy()
    scaled[:, 0] *= np.array(alphas)[:, None]
    worst = None
    for vs, alpha, value, base, scale in zip(batch.tuples, alphas, _evaluate(norm, scaled)[0], bases, scales):
        gap = _rel_gap(value, abs(alpha) * base, abs(alpha) * scale, band)
        if gap > cfg.tol.rel and (worst is None or gap > worst.discrepancy):
            worst = Witness(tuple(vs), {"alpha": alpha, "value": value, "base": base}, gap)
    return worst


def _check_triangle(norm, batch, rng):
    cfg = norm.cfg
    band = _zero_band(cfg)
    bases, base_scales = batch.base(norm)
    first_alts = [rng.uniform(-1.0, 1.0, cfg.dim) for _ in batch.tuples]
    summed, alt = batch.stack.copy(), batch.stack.copy()
    summed[:, 0] += first_alts
    alt[:, 0] = first_alts
    # summed tuples first, then the alternatives, in one stack
    values, scales = _evaluate(norm, np.concatenate([summed, alt]))
    count = len(first_alts)
    worst = None
    for t, (vs, first_alt) in enumerate(zip(batch.tuples, first_alts)):
        lhs = values[t]
        rhs = bases[t] + values[count + t]
        scale = max(scales[t], base_scales[t], scales[count + t])
        if lhs <= band * scale:
            continue  # zero-class left side cannot violate the inequality
        violation = (lhs - rhs) / max(scale, _TINY)
        if violation > cfg.tol.rel and (worst is None or violation > worst.discrepancy):
            worst = Witness(tuple(vs), {"added": first_alt, "lhs": lhs, "rhs": rhs}, violation)
    return worst


def _check_shift(norm, batch, rng):
    cfg = norm.cfg
    worst = None
    for vs in batch.tuples:
        alphas = rng.uniform(-5.0, 5.0, cfg.arity - 1) if cfg.arity > 1 else np.zeros(0)
        passed, gap = shift_invariance_check(norm, vs, alphas)
        if not passed and (worst is None or gap > worst.discrepancy):
            worst = Witness(tuple(vs), {"alphas": alphas}, gap)
    return worst


#: each check with the `_Sampler` method that draws its batch
_CHECKS = [
    (Axiom.NONNEGATIVITY, "boundary_batch", _check_nonnegativity),
    (Axiom.DEFINITENESS_FORWARD, "boundary_batch", _check_definiteness_forward),
    (Axiom.DEFINITENESS_BACKWARD, "dependent_batch", _check_definiteness_backward),
    (Axiom.PERMUTATION_INVARIANCE, "equality_batch", _check_permutation),
    (Axiom.ABSOLUTE_HOMOGENEITY, "equality_batch", _check_homogeneity),
    (Axiom.TRIANGLE_INEQUALITY, "equality_batch", _check_triangle),
    (Axiom.SHIFT_INVARIANCE, "equality_batch", _check_shift),
]


def check_axioms(norm: NNorm, trials: int, seed: int) -> list[AxiomReport]:
    """Run all seven axiom/identity checks on `trials` seeded tuples each.

    Equality-style checks (permutation, homogeneity, triangle, shift) compare
    values at tol.rel, measured against the tuple's Hadamard scale so that
    rounding near the dependent locus cannot masquerade as a violation.
    Definiteness is wired to the `rank` oracle in both directions, and the
    sample mix includes adversarial near-dependent tuples at perturbations
    1e-3, 1e-6, and 1e-12. Deterministic for a given seed; failures are
    reported with witnesses rather than raised.

    Each batch is drawn once, from a generator seeded with `seed`; each check
    reading it draws on from its own copy of that generator. The checks share
    the batch's values: the boundary batch's serve nonnegativity and forward
    definiteness, the equality batch's base values and scales serve
    permutation, homogeneity and triangle. Every permuted, scaled, summed or
    alternative tuple of a check is evaluated in one stack, and the worst
    witness is picked afterwards in batch order. The standard kind evaluates
    each stack with one QR; an injected evaluator is called once per tuple,
    in batch order. Shift invariance calls `shift_invariance_check` per tuple.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    drawn = {}
    reports = []
    for axiom, draw, fn in _CHECKS:
        if draw not in drawn:
            sampler = _Sampler(norm.cfg, np.random.default_rng(seed))
            drawn[draw] = (getattr(sampler, draw)(trials), sampler.rng)
        batch, rng = drawn[draw]
        witness = fn(norm, batch, copy.deepcopy(rng))
        reports.append(AxiomReport(axiom=axiom, passed=witness is None, trials=trials, witness=witness))
    return reports


def shift_invariance_check(norm: NNorm, vs, alphas) -> tuple[bool, float]:
    """Check that adding multiples of the later arguments to the first one
    leaves the norm unchanged. Returns (passed, relative discrepancy)."""
    cfg = norm.cfg
    if len(vs) != cfg.arity:
        raise DimensionMismatch("vector count", cfg.arity, len(vs))
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.shape[0] != cfg.arity - 1:
        raise DimensionMismatch("shift coefficient count", cfg.arity - 1, alphas.shape)
    vectors = list(as_rows(vs, cfg.dim))
    moved = [vectors[0] + sum(a * v for a, v in zip(alphas, vectors[1:]))] + vectors[1:]
    base = norm(vectors)
    shifted = norm(moved)
    scale = max(_products(cfg.arity, unit_rows(cfg, np.array(vectors + moved))[1]))
    gap = _rel_gap(base, shifted, scale, _zero_band(cfg))
    return gap <= cfg.tol.rel, gap
