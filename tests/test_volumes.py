"""Every Gram volume in the package comes from `linalg._volumes`, one QR
factor of the unit whitened rows: its one direct dgeqrf gufunc call gives
the diagonal `np.linalg.qr(..., mode="raw")` gives, bit for bit and without
a floating-point flag; it equals `standard_norm` bit for bit on a tuple and
on a stack, agrees with the cofactor oracle and, where a product leaves the
normal range, with mpmath, decides the sampler's and `random_frame`'s volume
gates as the LU Gram volume did, and an injected evaluator's stack takes the
row lengths without any QR. The projections that replaced a Gram solve
(`near_dependent`'s gate, `_escape_direction`) agree with the Gram-solve
oracle."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nnormkit import linalg, nnorm, quotient
from nnormkit.linalg import SpaceConfig, _qr_r_raw, _volumes, determinant, gram_matrix, hadamard_scale, unit_rows
from nnormkit.nnorm import NNorm, _evaluate, _Sampler, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, _escape_direction, random_frame

from oracles import cofactor_det, gram_perp_part


def _spd(d):
    return np.diag(np.linspace(0.5, 2.0, d)) + 0.1


def _stack(rng, k, d):
    """Generic tuples plus one with a zero row and one with rows 1e200 and
    1e-200 (1e200 alone when k = 1)."""
    stack = rng.uniform(-1.0, 1.0, (6, k, d))
    stack[1, k // 2] = 0.0
    stack[2, 0] *= 1e200
    if k > 1:
        stack[2, 1] *= 1e-200
    return stack


def _mode_r_volume(cfg, t):
    """The volume from the upper triangle numpy's mode="r" copies out."""
    units, lengths = unit_rows(cfg, t)
    if min(lengths) == 0.0:
        return 0.0
    return math.prod(lengths) * abs(math.prod(np.diagonal(np.linalg.qr(units.T, mode="r")).tolist()))


def _hard_stack(rng, k, d):
    """Generic tuples, one with a zero row, one with rows 1e200 and 1e-200
    (1e200 alone when k = 1), one of subnormal entries only, and one with a
    subnormal entry in every row."""
    stack = rng.uniform(-1.0, 1.0, (6, k, d))
    stack[1, k // 2] = 0.0
    stack[2, 0] *= 1e200
    if k > 1:
        stack[2, -1] *= 1e-200
    stack[3] *= 1e-310
    stack[4, :, 0] = 5e-324
    return stack


def _kernel_diagonals(cfg, tuples, monkeypatch):
    """The volumes of `_volumes` and the r_ii it read (None when it made no
    gufunc call), its gufunc run under np.errstate(all="raise")."""
    factors = []

    def kernel(a):
        with np.errstate(all="raise"):
            tau = _qr_r_raw(a)
        factors.append(a)
        return tau

    monkeypatch.setattr(linalg, "_qr_r_raw", kernel)
    volumes = _volumes(cfg, tuples)[0]
    assert len(factors) <= 1
    return volumes, np.diagonal(factors[0], 0, -2, -1) if factors else None


def _wrapper_diagonals(cfg, tuples):
    """The r_ii of numpy's own mode="raw" QR of the transposed unit rows."""
    units = unit_rows(cfg, tuples)[0]
    return np.diagonal(np.linalg.qr(units.swapaxes(-1, -2), mode="raw")[0], 0, -2, -1)


@pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("k", range(1, 8))
def test_kernel_diagonal_is_the_qr_wrappers_bit_for_bit(k, spd, monkeypatch):
    # the private gufunc is the one numpy's qr wraps; a numpy that changes it
    # fails here, as does a floating-point flag or warning it leaves behind
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(k, 31):
            cfg = SpaceConfig(dim=d, arity=k, metric=_spd(d) if spd else None)
            stack = _hard_stack(np.random.default_rng(100 * k + d), k, d)
            volumes, diagonals = _kernel_diagonals(cfg, stack, monkeypatch)
            expected = [_mode_r_volume(cfg, t) for t in stack]
            assert diagonals.tobytes() == _wrapper_diagonals(cfg, stack).tobytes()
            assert volumes == expected
            assert np.all(diagonals[3] != 0.0)  # subnormal rows have normal unit rows
            for t, value in zip(stack, expected):
                volumes, diagonal = _kernel_diagonals(cfg, t, monkeypatch)
                assert volumes == [value]
                if min(unit_rows(cfg, t)[1]) == 0.0:  # a zero row: no QR at all
                    assert diagonal is None
                else:
                    assert diagonal.tobytes() == _wrapper_diagonals(cfg, t).tobytes()


@pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("k, d", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 5), (4, 4), (5, 6)])
def test_volumes_equal_standard_norm_bit_for_bit(k, d, spd):
    cfg = SpaceConfig(dim=d, arity=k, metric=_spd(d) if spd else None)
    stack = _stack(np.random.default_rng(k * 10 + d), k, d)
    expected = [standard_norm(cfg, t) for t in stack]
    assert expected == [_mode_r_volume(cfg, t) for t in stack]
    assert expected[1] == 0.0
    assert 0.0 < expected[2] < math.inf
    volumes, lengths = _volumes(cfg, stack)
    assert volumes == expected
    assert lengths == [x for t in stack for x in unit_rows(cfg, t)[1]]
    for t, value in zip(stack, expected):
        assert _volumes(cfg, t) == ([value], unit_rows(cfg, t)[1])
    # unit_rows of the stack are each tuple's unit rows, bit for bit
    units = unit_rows(cfg, stack)[0]
    for t, u in zip(stack, units):
        assert np.array_equal(unit_rows(cfg, t)[0], u)


@pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
def test_volumes_match_the_cofactor_oracle(spd):
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        k = int(rng.integers(1, 6))
        d = k + int(rng.integers(0, 3))
        metric = _spd(d) if spd else np.eye(d)
        t = rng.uniform(-1.0, 1.0, (k, d))
        if np.linalg.cond(t) > 1e2:
            continue  # well-conditioned draws only
        cfg = SpaceConfig(dim=d, arity=k, metric=metric if spd else None)
        exact = math.sqrt(cofactor_det((t @ metric @ t.T).tolist()))
        assert _volumes(cfg, t)[0][0] == pytest.approx(exact, rel=1e-12, abs=0.0)
        checked += 1
    assert checked > 200


GATE_SHAPES = [(n, d, None) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [(4, 5, "spd")]


def _recording(monkeypatch, module, log):
    def volumes(cfg, tuples):
        out = _volumes(cfg, tuples)
        log.append((np.array(tuples), out[0][0]))
        return out

    monkeypatch.setattr(module, "_volumes", volumes)


def _lu_gram_volume(cfg, rows):
    return math.sqrt(max(determinant(gram_matrix(cfg, rows)), 0.0))


def _gate_decisions(cfg, monkeypatch):
    """(floor, our decision, the LU Gram volume's decision) for every gate
    decision of random_frame (at 0.05 and 0.1) and of the sampler's three
    batches (at 0.3), over seeds 1, 2 and 3."""
    batches = ("boundary_batch", "dependent_batch", "equality_batch")
    decisions = []
    for module, draw, floor in [
        (quotient, lambda rng: [random_frame(cfg, rng) for _ in range(10)], 0.05),
        (quotient, lambda rng: [random_frame(cfg, rng, min_volume=0.1) for _ in range(10)], 0.1),
        (nnorm, lambda rng: [getattr(_Sampler(cfg, rng), b)(40) for b in batches], _Sampler.MIN_VOLUME),
    ]:
        for seed in (1, 2, 3):
            log = []
            _recording(monkeypatch, module, log)
            draw(np.random.default_rng(seed))
            decisions += [(floor, volume >= floor, _lu_gram_volume(cfg, rows) >= floor) for rows, volume in log]
    return decisions


@pytest.mark.parametrize("n, d, metric", GATE_SHAPES)
def test_volume_gates_decide_as_the_lu_gram_volume(n, d, metric, monkeypatch):
    cfg = SpaceConfig(dim=d, arity=n, metric=_spd(d) if metric else None)
    decisions = _gate_decisions(cfg, monkeypatch)
    assert decisions
    assert all(ours == lu for _, ours, lu in decisions)


def _metric_length(cfg, v):
    return math.sqrt(v @ cfg.metric_matrix() @ v)


@pytest.mark.parametrize("n, d, metric", GATE_SHAPES)
def test_near_dependent_gate_decides_as_the_gram_solve_projection(n, d, metric, monkeypatch):
    # each volume of n rows the sampler takes is a near_dependent gate on
    # its last row w, and each run of them is one call's loop, which stops
    # at the first w it accepts: the gate rejected all others of the run
    cfg = SpaceConfig(dim=d, arity=n, metric=_spd(d) if metric else None)
    decisions = []
    for seed in (1, 2, 3):
        log = []
        _recording(monkeypatch, nnorm, log)
        sampler = _Sampler(cfg, np.random.default_rng(seed))
        sampler.boundary_batch(40)
        sampler.equality_batch(40)
        runs = [list(run) for wide, run in itertools.groupby(log, lambda entry: len(entry[0]) == n) if wide]
        for run in runs:
            assert len(run) < 200  # every loop accepted a draw
            for t, (rows, _) in enumerate(run):
                oracle = _metric_length(cfg, gram_perp_part(cfg.metric, rows[:-1], rows[-1])) >= _Sampler.MIN_PERP
                decisions.append((t == len(run) - 1, oracle))
    assert decisions
    assert all(ours == oracle for ours, oracle in decisions)
    if d == n:  # a square shape rejects draws as well
        assert {ours for ours, _ in decisions} == {True, False}


@pytest.mark.parametrize("n, d, metric", [shape for shape in GATE_SHAPES if shape[1] > shape[0]])
def test_escape_direction_is_the_gram_solve_complement(n, d, metric):
    # the first normal draw whose complement part is at least 0.1 long,
    # scaled to unit length, as the oracle's Gram solve gives it
    cfg = SpaceConfig(dim=d, arity=n, metric=_spd(d) if metric else None)
    rng = np.random.default_rng(100 * n + d)
    for seed in range(5):
        frame = random_frame(cfg, rng)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        direction = _escape_direction(frame, IndexSet([1]), ours)
        while True:
            perp = gram_perp_part(cfg.metric, frame.vectors, theirs.normal(size=d))
            if _metric_length(cfg, perp) >= 0.1:
                break
        assert np.max(np.abs(direction - perp / _metric_length(cfg, perp))) <= 1e-12
        assert ours.normal() == theirs.normal()  # both took the same draws


def test_every_gate_both_accepts_and_rejects_draws(monkeypatch):
    # so the agreement above covers rejections as well as acceptances
    decisions = _gate_decisions(SpaceConfig(dim=5, arity=5), monkeypatch)
    for floor in (0.05, 0.1, _Sampler.MIN_VOLUME):
        assert {ours for f, ours, _ in decisions if f == floor} == {True, False}


@pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
def test_qr_calls_of_injected_and_standard_stacks(spd, monkeypatch):
    cfg = SpaceConfig(dim=4, arity=3, metric=_spd(4) if spd else None)
    stack = np.random.default_rng(9).uniform(-1.0, 1.0, (8, 3, 4))
    qr_calls = []
    monkeypatch.setattr(linalg, "_qr_r_raw", lambda a: qr_calls.append(1) or _qr_r_raw(a))
    product = NNorm(cfg, "injected", lambda vs: math.prod(float(np.abs(v).sum()) for v in vs))
    values, scales = _evaluate(product, stack)
    assert qr_calls == []
    assert values == [product(list(t)) for t in stack]
    assert scales == [hadamard_scale(cfg, t) for t in stack]
    # the standard kind takes one QR for the whole stack
    values, _ = _evaluate(standard_nnorm(cfg), stack)
    assert len(qr_calls) == 1
    assert values == [standard_norm(cfg, t) for t in stack]
    # and none when every tuple has a zero row
    qr_calls.clear()
    stack[:, 1] = 0.0
    assert _volumes(cfg, stack)[0] == [0.0] * 8
    assert _volumes(cfg, stack[0])[0] == [0.0]
    assert qr_calls == []


E = np.eye(3)
#: rows of length about 1e50 whose unit rows have r_22 and r_33 near 1e-160,
#: so prod r_ii is near 1e-320
SUBNORMAL_R = [1e50 * E[0], [1e50, 1e-110, 0.0], [1e50, 0.0, 1e-110]]


def _mp_volume(rows):
    """|det| of a square matrix of doubles, in mpmath at enough digits for
    entries 1e160 apart."""
    with mpmath.workdps(800):
        return abs(mpmath.det(mpmath.matrix(np.asarray(rows).tolist())))


@pytest.mark.parametrize(
    "rows, exact",
    [
        ([[5e199, 0.0, 0.3], 1e200 * E[0], E[1]], 3e199),  # the lengths' product overflows
        ([[5e199, 0.0, 0.3], 1e200 * E[0], E[2]], 0.0),  # and the rows are dependent
        (np.diag([1e-200, 1e-200, 1e200]), 1e-200),  # the lengths' product underflows
        (np.diag([1e-160, 1e-160, 1e160]), 1e-160),  # a partial product goes subnormal
        ([1e200 * E[0], [1e200, 1.0, 0.0], [1e200, 0.0, 1.0]], 1e200),  # prod r_ii underflows
        (SUBNORMAL_R, float(_mp_volume(SUBNORMAL_R))),  # lengths in band, prod r_ii subnormal
    ],
    ids=["overflow", "overflow-dependent", "underflow", "subnormal-partial", "r-underflow", "r-subnormal"],
)
def test_volumes_whose_length_product_leaves_the_range(rows, exact):
    # the plain product gave inf, nan, 0.0, 9.99989e-161, 0.0 and
    # 9.99989e-171 here
    cfg = SpaceConfig(dim=3, arity=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = standard_norm(cfg, rows)
        assert value == pytest.approx(exact, rel=4e-16, abs=0.0)
        assert _volumes(cfg, np.array([rows, np.eye(3)]))[0] == [value, 1.0]


def test_a_volume_past_the_double_range_is_inf():
    cfg = SpaceConfig(dim=3, arity=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert standard_norm(cfg, np.diag([1e200, 1e200, 1e200])) == math.inf
        assert standard_norm(cfg, np.diag([1e-200, 1e-200, 1e-200])) == 0.0


@pytest.mark.parametrize("k", range(2, 8))
def test_split_product_keeps_the_plain_products_bits(k):
    # where no partial product leaves the normal range, the plain product
    # bit for bit; elsewhere within k roundings of the exact product, with
    # a shift only where that product is not a normal double
    rng = np.random.default_rng(k)
    limit = 2000 // k
    seen = set()
    for _ in range(2000):
        factors = [math.ldexp(m, int(e)) for m, e in zip(rng.uniform(0.5, 1.0, k), rng.integers(-limit, limit, k))]
        partials = list(itertools.accumulate(factors, lambda a, b: a * b))
        p, shift = linalg._split_product(factors)
        if all(sys.float_info.min <= x < math.inf for x in partials):
            assert (p, shift) == (partials[-1], 0)
            seen.add("plain")
            continue
        exact = math.prod(Fraction(f) for f in factors)
        assert abs(Fraction(p) * Fraction(2) ** shift / exact - 1) <= k * 2.0**-52
        assert (shift == 0) == (Fraction(sys.float_info.min) <= exact < 2**1024)
        seen.add("shifted" if shift else "folded")
    assert {"plain", "shifted"} <= seen  # the folded case is pinned below


def test_split_product_serves_the_frame_geometry():
    # P_4 of this frame is 1e-160 * 1e-160 * 1e160, whose plain product
    # passes through a subnormal; the mantissa product folds back to 1e-160
    cfg = SpaceConfig(dim=4, arity=4)
    frame = quotient.Frame(cfg, np.diag([1e-160, 1e-160, 1e160, 1.0]))
    assert linalg._split_product([1e-160, 1e-160, 1e160]) == (1e-160, 0)
    assert quotient.class1_norm(frame, standard_nnorm(cfg), np.eye(4)[3], 4) == 1e-160
