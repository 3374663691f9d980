"""The Gram-determinant norm on n-tuples of vectors, and a seeded checker
for the defining axioms that works against any injected evaluator.

A value of the standard norm is sqrt(det(Gram)), the volume of the
parallelepiped the vectors span; it is taken from a QR factor of the unit
whitened vectors (`linalg._volumes`), so the Gram matrix is never formed.

The checker measures each drawn batch's unit rows and lengths and takes
its values and scales once, right after the draw (`_Batch.evaluate`), for
every norm kind; every tuple a check derives from it (permuted, scaled,
summed, alternative or shifted) is evaluated in one more stack, all through
`_evaluate`, on unit rows and lengths reused from the batch's: a permuted
tuple has its base's, permuted, and a tuple with a new first row measures
only that row. For the standard kind, one stacked QR gives every value, bit
for bit the value `standard_norm` gives the tuple alone; any other
evaluator is called once per tuple, in stack order. The public
`shift_invariance_check` runs the checker's shift code on a one-tuple
batch. The sampler's volume gate reads the same kernel.

`NNorm` is the one boundary between an evaluator and every engine, here and
in `quotient`: a standard-kind norm is checked against `standard_norm` once,
when it is made, so no engine calls its evaluator, and every call of any
other evaluator converts its value to a float in `NNorm.__call__`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DimensionMismatch,
    SpaceConfig,
    _index,
    _metric_length,
    _products,
    _unit_volumes,
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
_NOT_STANDARD = "an NNorm of the standard kind must evaluate as standard_norm"


def standard_norm(cfg: SpaceConfig, vs) -> float:
    """Standard n-norm: square root of the Gram determinant of the tuple.

    Requires exactly cfg.arity finite vectors of dimension cfg.dim, checked
    as one array. The value is the volume of the parallelepiped the vectors
    span, and is zero exactly when they are linearly dependent.

    The value is `linalg._volumes` of the checked tuple: the product of the
    metric lengths times |prod r_ii| of one QR factor of the unit whitened
    vectors, 0.0 when a vector is zero. A tuple that converts to an (n, d)
    array goes to the kernel as it is, and `linalg._row_lengths` decides its
    finiteness from the lengths it takes anyway; any other tuple goes
    through `as_rows`, whose error names the first bad vector.
    """
    if len(vs) != cfg.arity:
        raise DimensionMismatch("vector count", cfg.arity, len(vs))
    try:
        rows = np.asarray(vs, dtype=float)
    except ValueError:  # ragged; named by as_rows
        rows = None
    if rows is None or rows.shape != (cfg.arity, cfg.dim):
        rows = as_rows(vs, cfg.dim)
    return _volumes(cfg, rows)[0][0]


def _evaluate(norm: NNorm, stack: np.ndarray, units: tuple[np.ndarray, np.ndarray]) -> tuple[list, list[float]]:
    """Values of `norm` on each tuple of a checked (B, n, d) stack, in
    order, and the Hadamard scale of each tuple, given the stack's unit
    rows (B, n, d) and their lengths (B, n): a batch's (`_Batch.evaluate`),
    or derived from a batch's. This is the one evaluation path of every
    norm kind.

    The standard kind takes all values from one `_unit_volumes` call on the
    unit rows, bit for bit what `standard_norm` gives each tuple alone. Any
    other kind is called once per tuple, in order, with the tuple as a list
    of rows, and takes no QR. The scales are one `_products` call on the
    given lengths, bit for bit what `hadamard_scale` gives each tuple
    alone.
    """
    lengths = units[1].ravel().tolist()
    values = _unit_volumes(units[0], lengths) if norm.kind == "standard" else [norm(list(vs)) for vs in stack]
    return values, _products(norm.cfg.arity, lengths)


@dataclass(frozen=True)
class NNorm:
    """An n-norm candidate: a total evaluator on cfg.arity vectors.

    Only the standard (Gram determinant) evaluator ships built in; custom
    evaluators can be injected so the axiom checker is reusable against
    deliberately broken or exotic norms.

    The kind "standard" is a guarantee: `check_axioms` and the quotient
    layer take such a norm's values from their stacked and closed-form
    kernels, never from its evaluator. So making one calls the evaluator
    once, on a fixed full-rank probe tuple whose volume is not 1, and raises
    a ValueError unless it gives the probe's `linalg._volumes` value (the
    value `standard_norm` gives) bit for bit. The probe's first row is 2**600
    times the rest, so its Gram matrix overflows where its volume does not:
    an evaluator that goes through the Gram determinant is refused at every
    shape, even at n = 1, where it otherwise matches the volume bit for bit.
    An evaluator that raises on the probe is refused too, with the ValueError
    raised from its error.

    A call returns what the evaluator returns when that is a Python float,
    and otherwise converts it as a float64 array entry converts it (an
    np.float32 widened, None to NaN), so every engine reads the same value.
    """

    cfg: SpaceConfig
    kind: str
    evaluator: Callable[[Sequence[np.ndarray]], float]

    def __post_init__(self):
        if self.kind == "standard":
            n, d = self.cfg.arity, self.cfg.dim
            probe = np.eye(n, d) + 1.0 / (np.add.outer(np.arange(n), np.arange(d)) + 2.0)
            probe[0] *= 2.0**600  # its Gram matrix overflows, its volume does not
            try:
                value = self(list(probe))
            except Exception as exc:  # standard_norm raises nothing on the probe
                raise ValueError(_NOT_STANDARD) from exc
            if value != _volumes(self.cfg, probe)[0][0]:
                raise ValueError(_NOT_STANDARD)

    def __call__(self, vs) -> float:
        value = self.evaluator(vs)
        if type(value) is not float:
            cell = np.empty(1)
            cell[0] = value
            value = cell[0]
        return value


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
    measured discrepancy that exceeded the tolerance (NaN when the check
    could not measure one)."""

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

    `evaluate(norm)` measures the stack once, for every norm kind: `units`,
    its unit rows (B, n, d) and lengths (B, n) as `unit_rows` gives them,
    which the checks' derived stacks reuse, and the `values` and `scales`
    that every check reading the batch shares.
    """

    def __init__(self, tuples: list[list[np.ndarray]], labels: list[str] | None = None):
        self.tuples = tuples
        self.labels = labels
        self.stack = np.array(tuples)

    def evaluate(self, norm: NNorm) -> _Batch:
        units, lengths = unit_rows(norm.cfg, self.stack)
        self.units = (units, np.array(lengths).reshape(units.shape[:2]))
        self.values, self.scales = _evaluate(norm, self.stack, self.units)
        return self


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

    def _insert(self, rows: list[np.ndarray], special: np.ndarray) -> list[np.ndarray]:
        slot = int(self.rng.integers(0, len(rows) + 1))
        return rows[:slot] + [special] + rows[slot:]

    def _combination(self, others: list[np.ndarray]) -> np.ndarray:
        """A random combination of the rows, made unit unless it is tiny."""
        combo = np.array(others).T @ self.rng.uniform(-0.75, 0.75, len(others))
        if _metric_length(self.cfg, combo) > 1e-3:
            combo = self._unit(combo)
        return combo

    def dependent(self) -> list[np.ndarray]:
        n = self.cfg.arity
        kind = int(self.rng.integers(0, 3))
        others = self._conditioned_units(n - 1)
        if kind == 0 and n >= 2:  # exact combination of the others
            special = self._combination(others)
        elif kind == 1 and n >= 2:  # duplicated vector
            special = others[int(self.rng.integers(0, n - 1))].copy()
        else:  # zero vector
            special = np.zeros(self.cfg.dim)
        return self._insert(others, special)

    def near_dependent(self, delta: float) -> list[np.ndarray]:
        n = self.cfg.arity
        if n == 1:
            return [delta * self._conditioned_units(1)[0]]
        others = self._conditioned_units(n - 1)
        combo = self._combination(others)
        volume = _volumes(self.cfg, np.array(others))[0][0]
        for _ in range(200):
            w = self._unit(self.rng.normal(size=self.cfg.dim))
            # the distance of w from the others' span is the ratio of the
            # volumes with and without it
            if _volumes(self.cfg, np.array(others + [w]))[0][0] >= self.MIN_PERP * volume:
                break
        return self._insert(others, combo + delta * w)

    def equality_batch(self, trials: int) -> _Batch:
        """Tuples for value-comparison checks: generic plus mild perturbation."""
        return _Batch([self.near_dependent(self.MILD_DELTA) if t % 7 == 6 else self.generic() for t in range(trials)])

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


def _worst(witnesses) -> Witness | None:
    """The first witness with the largest discrepancy, a NaN discrepancy
    ranking as inf; None when there are no witnesses. Every check of
    `check_axioms` and of `quotient.quotient_norm_axioms` selects its
    witness here, from the witnesses of its failing decisions in order."""
    return max(witnesses, key=lambda w: _severity(w.discrepancy), default=None)


def _severity(gap: float) -> float:
    """A gap's rank among discrepancies: NaN ranks as inf."""
    return math.inf if math.isnan(gap) else gap


def _check_nonnegativity(norm, batch, rng):
    return _worst(
        Witness(tuple(vs), {"construction": label, "value": value}, -value if math.isfinite(value) else math.inf)
        for vs, label, value in zip(batch.tuples, batch.labels, batch.values)
        if not (math.isfinite(value) and value >= -norm.cfg.tol.zero)
    )


def _check_definiteness_forward(norm, batch, rng):
    # whenever the value collapses to zero scale, the tuple must be dependent
    cfg = norm.cfg
    return _worst(
        Witness(tuple(vs), {"construction": label, "value": value}, math.inf)
        for vs, label, value, scale in zip(batch.tuples, batch.labels, batch.values, batch.scales)
        if value <= cfg.tol.zero * scale and rank(vs, cfg.tol) == cfg.arity
    )


def _check_definiteness_backward(norm, batch, rng):
    # dependent tuples must evaluate to zero, inside the zero band
    band = _zero_band(norm.cfg)
    return _worst(
        Witness(tuple(vs), {"construction": label, "value": value}, value - band * scale)
        for vs, label, value, scale in zip(batch.tuples, batch.labels, batch.values, batch.scales)
        if not value <= band * scale
    )


def _zero_band(cfg: SpaceConfig) -> float:
    # an injected evaluator may take its value as the square root of a Gram
    # determinant, whose rounding sits where tol.zero lives, so values below
    # sqrt(tol.zero) * scale are indistinguishable from zero there. The band
    # stays for those evaluators; the built-in QR volume does not need it
    return math.sqrt(cfg.tol.zero)


def _rel_gap(a: float, b: float, scale: float, band: float) -> float:
    """Relative discrepancy of two norm values of comparable scale; NaN when
    either value is NaN.

    Values inside the zero band compare equal: on (near-)dependent tuples the
    computed norm is pure rounding noise, and the definiteness axiom says
    both sides vanish there anyway.
    """
    if abs(a) <= band * scale and abs(b) <= band * scale:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), scale, _TINY)


def _excess(lhs: float, rhs: float, scale: float, band: float) -> float:
    """Relative amount by which lhs exceeds rhs, for an inequality lhs <= rhs
    between norm values of comparable scale; NaN when either side is NaN.

    A left side inside the zero band has no excess: it is zero up to
    rounding, and a zero left side cannot violate the inequality.
    """
    if lhs <= band * scale:
        return 0.0
    return (lhs - rhs) / max(scale, _TINY)


def _check_permutation(norm, batch, rng):
    cfg = norm.cfg
    n = cfg.arity
    band = _zero_band(cfg)
    if n <= 4:
        perms = [list(itertools.permutations(range(n)))] * len(batch.tuples)
    else:
        perms = [[tuple(rng.permutation(n)) for _ in range(8)] for _ in batch.tuples]
    index = (np.arange(len(perms))[:, None, None], np.array(perms))
    stack = batch.stack[index].reshape(-1, n, cfg.dim)
    # a permuted tuple's unit rows and lengths are its base's, permuted
    units, lengths = batch.units
    values = iter(_evaluate(norm, stack, (units[index].reshape(stack.shape), lengths[index]))[0])
    return _worst(
        Witness(tuple(vs), {"permutation": perm, "value": value, "base": base}, gap)
        for vs, base, scale, tuple_perms in zip(batch.tuples, batch.values, batch.scales, perms)
        for perm, value in zip(tuple_perms, values)
        if not (gap := _rel_gap(value, base, scale, band)) <= cfg.tol.rel
    )


def _check_homogeneity(norm, batch, rng):
    cfg = norm.cfg
    band = _zero_band(cfg)
    alphas = [float(rng.uniform(-10.0, 10.0)) for _ in batch.tuples]
    values = _first_rows(norm, batch, batch.stack[:, 0] * np.array(alphas)[:, None])[0]
    return _worst(
        Witness(tuple(vs), {"alpha": alpha, "value": value, "base": base}, gap)
        for vs, alpha, value, base, scale in zip(batch.tuples, alphas, values, batch.values, batch.scales)
        if not (gap := _rel_gap(value, abs(alpha) * base, abs(alpha) * scale, band)) <= cfg.tol.rel
    )


def _check_triangle(norm, batch, rng):
    cfg = norm.cfg
    band = _zero_band(cfg)
    first_alts = [rng.uniform(-1.0, 1.0, cfg.dim) for _ in batch.tuples]
    # summed tuples first, then the alternatives, in one stack
    values, scales = _first_rows(norm, batch, batch.stack[:, 0] + first_alts, np.array(first_alts))
    count = len(first_alts)
    sums = [batch.values[t] + values[count + t] for t in range(count)]
    bounds = [max(scales[t], batch.scales[t], scales[count + t]) for t in range(count)]
    return _worst(
        Witness(tuple(vs), {"added": first_alt, "lhs": lhs, "rhs": rhs}, violation)
        for vs, first_alt, lhs, rhs, scale in zip(batch.tuples, first_alts, values, sums, bounds)
        if not (violation := _excess(lhs, rhs, scale, band)) <= cfg.tol.rel
    )


def _check_shift(norm, batch, rng):
    alphas = [rng.uniform(-5.0, 5.0, norm.cfg.arity - 1) for _ in batch.tuples]
    checked = zip(batch.tuples, alphas, _shift_gaps(norm, batch, alphas))
    return _worst(Witness(tuple(vs), {"alphas": a}, gap) for vs, a, gap in checked if not gap <= norm.cfg.tol.rel)


def _first_rows(norm: NNorm, batch: _Batch, *firsts: np.ndarray) -> tuple[list, list[float]]:
    """Values and scales of the batch's tuples with new first rows: each
    (B, d) array of `firsts` in turn replaces the first rows, and every
    variant is evaluated in one `_evaluate` stack, in that order. Only the
    new first rows are measured (`unit_rows` with `first`); the batch's unit
    rows and lengths serve for the rest. A non-finite new row raises the
    ValueError a non-finite vector raises, from `linalg._row_lengths`,
    before any evaluator call."""
    stack = np.concatenate([batch.stack] * len(firsts))
    stack[:, 0] = np.concatenate(firsts)
    units = tuple(np.concatenate([part] * len(firsts)) for part in batch.units)
    units[0][:, 0], units[1][:, 0] = unit_rows(norm.cfg, stack, first=True)
    return _evaluate(norm, stack, units)


def _shift_gaps(norm: NNorm, batch: _Batch, alphas) -> list[float]:
    """Per tuple, the relative gap between its base value and the value once
    its first row gains its coefficients' combination of the later rows,
    against the larger of the two Hadamard scales."""
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = np.array([rows[0] + sum(a * v for a, v in zip(a_t, rows[1:])) for rows, a_t in zip(batch.stack, alphas)])
    values, scales = _first_rows(norm, batch, firsts)
    band = _zero_band(norm.cfg)
    return [_rel_gap(b, v, max(b_s, v_s), band) for b, b_s, v, v_s in zip(batch.values, batch.scales, values, scales)]


def _trials(trials) -> int:
    """trials as an int >= 1, for the axiom checkers; a value that is not a
    whole number raises a ValueError naming it."""
    trials = _index(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return trials


def _copy_rng(rng: np.random.Generator) -> np.random.Generator:
    """A generator that draws what the PCG64-backed `rng` (the kind
    `np.random.default_rng` makes) draws next: a PCG64 given its bit
    generator's state, about a third of a `copy.deepcopy`'s cost. The new
    PCG64 is seeded with 0, which its state then replaces: unseeded, it
    would read OS entropy on every copy."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


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
    trials is a whole number >= 1: 2.0 means 2, and 2.5 raises a ValueError
    naming it.

    Equality-style checks (permutation, homogeneity, triangle, shift) compare
    values at tol.rel, measured against the tuple's Hadamard scale so that
    rounding near the dependent locus cannot masquerade as a violation.
    Definiteness is wired to the `rank` oracle in both directions, and the
    sample mix includes adversarial near-dependent tuples at perturbations
    1e-3, 1e-6, and 1e-12. Deterministic for a given seed; failures are
    reported with witnesses rather than raised.

    Each batch is drawn once, from a generator seeded with `seed`; each check
    reading it draws on from its own copy of that generator, made from the
    generator's state (`_copy_rng`) rather than by deep copy. Right after
    its draw, a batch's unit rows, lengths, values and scales are taken
    once (`_Batch.evaluate`), the same way for every norm kind, and the
    checks share them: the boundary batch's serve nonnegativity and forward
    definiteness, the equality batch's base values and scales serve
    permutation, homogeneity, triangle and shift invariance. Every permuted,
    scaled, summed, alternative or shifted tuple of a check is evaluated in
    one stack, on unit rows and lengths reused from the batch's (permuted,
    or with only the new first rows measured), so an injected norm measures
    the rows the standard kind measures; `_first_rows` builds the stacks of
    the three checks that change only the first row. The standard kind
    evaluates each stack with one QR and never calls its evaluator (`NNorm`
    checked it when the norm was made); an injected evaluator is called
    once per tuple, in batch order, through `NNorm.__call__`, so a value
    that is not a float (None, say) is converted, and a NaN fails its checks
    rather than raising.

    A decision that compares a gap with its threshold fails unless gap <=
    threshold, so a NaN value or gap fails. Each check hands the witnesses
    of its failing decisions, in batch order, to `_worst`, which reports the
    first with the largest discrepancy, NaN ranking as inf. Forward
    definiteness gives each failing tuple the discrepancy inf, so it reports
    the first failing tuple.
    """
    trials = _trials(trials)
    drawn = {}
    reports = []
    for axiom, draw, fn in _CHECKS:
        if draw not in drawn:
            sampler = _Sampler(norm.cfg, np.random.default_rng(seed))
            drawn[draw] = (getattr(sampler, draw)(trials).evaluate(norm), sampler.rng)
        batch, rng = drawn[draw]
        witness = fn(norm, batch, _copy_rng(rng))
        reports.append(AxiomReport(axiom=axiom, passed=witness is None, trials=trials, witness=witness))
    return reports


def shift_invariance_check(norm: NNorm, vs, alphas) -> tuple[bool, float]:
    """Check that adding multiples of the later arguments to the first one
    leaves the norm unchanged. Returns (passed, relative discrepancy).

    The coefficients must be finite; a shifted first vector that overflows
    raises the ValueError a non-finite vector raises. The tuple is
    evaluated first, as a one-tuple batch (`_Batch.evaluate`), then the
    shifted tuple, as `check_axioms` evaluates them.
    """
    cfg = norm.cfg
    if len(vs) != cfg.arity:
        raise DimensionMismatch("vector count", cfg.arity, len(vs))
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.shape[0] != cfg.arity - 1:
        raise DimensionMismatch("shift coefficient count", cfg.arity - 1, alphas.shape)
    if not np.isfinite(alphas).all():
        raise ValueError(f"shift coefficients must be finite, got {alphas.tolist()}")
    gap = _shift_gaps(norm, _Batch([as_rows(vs, cfg.dim)]).evaluate(norm), [alphas])[0]
    return gap <= cfg.tol.rel, gap
