"""Every Gram volume in the package comes from `linalg._volumes`, one QR
factor of the unit whitened rows: its one direct dgeqrf gufunc call gives
the diagonal `np.linalg.qr(..., mode="raw")` gives, bit for bit and without
a floating-point flag; it equals `standard_norm` bit for bit on a tuple and
on a stack, a single tuple on each of its routes the stack of that one
tuple, agrees with the cofactor oracle and, where a product leaves the
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
from nnormkit.linalg import DimensionMismatch, SpaceConfig, _qr_r_raw, _row_lengths, _volumes, as_rows, determinant, gram_matrix, hadamard_scale, unit_rows
from nnormkit.nnorm import NNorm, _Sampler, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, _escape_direction, random_frame

from oracles import cofactor_det, fresh_evaluate, gram_perp_part


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
@pytest.mark.parametrize("k, d", [(2, 3), (5, 6)])
def test_standard_norm_decides_finiteness_from_the_lengths(k, d, spd):
    # a well-formed tuple reaches the kernel unscanned: a NaN or an infinity
    # at any entry is named by the lengths (under a metric, by the check
    # before the whitening product, where inf * 0 would warn), and a finite
    # row whose length overflows goes on as through as_rows
    cfg = SpaceConfig(dim=d, arity=k, metric=_spd(d) if spd else None)
    rows = np.random.default_rng(k + d).uniform(-1.0, 1.0, (k, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            for i, j in itertools.product(range(k), range(d)):
                tuple_ = rows.copy()
                tuple_[i, j] = bad
                for vs in (list(tuple_), tuple_.tolist()):
                    with pytest.raises(ValueError, match="non-finite coordinates") as err:
                        standard_norm(cfg, vs)
                    assert not isinstance(err.value, DimensionMismatch)
        overflowed = False
        for i in range(k):
            tuple_ = rows.copy()
            tuple_[i] = 1e308
            overflowed |= not sum(_row_lengths(cfg, tuple_)[1]) < math.inf
            expected = _volumes(cfg, as_rows(list(tuple_), d))[0][0]
            assert standard_norm(cfg, list(tuple_)).hex() == expected.hex()
    # the exact check ran: a row of 1e308 entries has a length past the
    # double range at d = 6, and so does its whitened row at both sizes
    assert overflowed == (d == 6 or spd)


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
    """Log each `_volumes` call of `module` as (its tuples as one (B, k, d)
    stack, their volumes)."""

    def volumes(cfg, tuples):
        out = _volumes(cfg, tuples)
        log.append((np.array(tuples).reshape(-1, *tuples.shape[-2:]), out[0]))
        return out

    monkeypatch.setattr(module, "_volumes", volumes)


def _lu_gram_volume(cfg, rows):
    return math.sqrt(max(determinant(gram_matrix(cfg, rows)), 0.0))


def _rounds(gates, rejected):
    """The number of rounds of each gate loop in a log of gating stacks:
    a round that rejects some tuples is followed by the round that gates
    their new draws, exactly as many, and a round that rejects none ends
    its loop."""
    rounds, loops = 1, []
    for stack, following, rejects in zip(gates, gates[1:] + [None], rejected):
        if rejects:
            assert len(following) == rejects
            rounds += 1
        else:
            loops.append(rounds)
            rounds = 1
    assert rounds == 1  # the last loop ended in an acceptance
    return loops


def _gate_decisions(cfg, monkeypatch):
    """(floor, our decision, the LU Gram volume's decision) for every gate
    decision of random_frame (at 0.05 and 0.1) and of the sampler's three
    batches, over seeds 1, 2 and 3. The sampler's volume gates are stacked:
    every tuple of every stack of n - 1 rows (the others of a dependent or
    perturbed tuple, at 0.3) is one decision, and each of its loops ends in
    an acceptance within 200 rounds."""
    n = cfg.arity
    batches = ("boundary_batch", "dependent_batch", "equality_batch")
    decisions = []
    for module, draw, floor, k in [
        (quotient, lambda rng: [random_frame(cfg, rng) for _ in range(10)], 0.05, n),
        (quotient, lambda rng: [random_frame(cfg, rng, min_volume=0.1) for _ in range(10)], 0.1, n),
        (nnorm, lambda rng: [getattr(_Sampler(cfg, rng), b)(40) for b in batches], _Sampler.MIN_VOLUME, n - 1),
    ]:
        for seed in (1, 2, 3):
            log = []
            _recording(monkeypatch, module, log)
            draw(np.random.default_rng(seed))
            gates = [(stack, volumes) for stack, volumes in log if stack.shape[1] == k]
            ours = [[volume >= floor for volume in volumes] for _, volumes in gates]
            decisions += [
                (floor, accepted, _lu_gram_volume(cfg, rows) >= floor)
                for (stack, _), decided in zip(gates, ours)
                for rows, accepted in zip(stack, decided)
            ]
            if module is nnorm:
                loops = _rounds([stack for stack, _ in gates], [decided.count(False) for decided in ours])
                assert max(loops, default=1) < 200
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
    # each stack of n rows the sampler takes a volume of is a near_dependent
    # gate: every tuple is the others (its first n - 1 rows) and one
    # candidate w. A rejected w is drawn again with the same others, so the
    # sampler rejected a tuple exactly when its others come back, in order,
    # as the next round's stack; a round that rejects none ends its loop
    cfg = SpaceConfig(dim=d, arity=n, metric=_spd(d) if metric else None)
    decisions = []
    for seed in (1, 2, 3):
        log = []
        _recording(monkeypatch, nnorm, log)
        sampler = _Sampler(cfg, np.random.default_rng(seed))
        sampler.boundary_batch(40)
        sampler.equality_batch(40)
        gates = [stack for stack, _ in log if stack.shape[1] == n]
        rejected = []
        for stack, following in zip(gates, gates[1:] + [np.empty((0, n, d))]):
            others = [rows[:-1].tobytes() for rows in stack]
            redrawn = [rows[:-1].tobytes() for rows in following]
            accepted = [o not in redrawn for o in others]
            if not all(accepted):  # the next round gates exactly the rejected, in order
                assert redrawn == [o for o, ok in zip(others, accepted) if not ok]
            rejected.append(accepted.count(False))
            for rows, ours in zip(stack, accepted):
                oracle = _metric_length(cfg, gram_perp_part(cfg.metric, rows[:-1], rows[-1])) >= _Sampler.MIN_PERP
                decisions.append((ours, oracle))
        assert max(_rounds(gates, rejected)) < 200  # every loop accepted a draw
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
    standard = standard_nnorm(cfg)  # its probe's QR is taken before counting
    qr_calls = []
    monkeypatch.setattr(linalg, "_qr_r_raw", lambda a: qr_calls.append(1) or _qr_r_raw(a))
    product = NNorm(cfg, "injected", lambda vs: math.prod(float(np.abs(v).sum()) for v in vs))
    values, scales = fresh_evaluate(product, stack)
    assert qr_calls == []
    assert values == [product(list(t)) for t in stack]
    assert scales == [hadamard_scale(cfg, t) for t in stack]
    # the standard kind takes one QR for the whole stack
    values, _ = fresh_evaluate(standard, stack)
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


def _route_counter(monkeypatch) -> tuple[list, object]:
    """A `_volumes` that records its route in the list: "stack" through
    `_unit_volumes`, "products" for `_products` on a single tuple's |r_ii|,
    and "plain" for the plain product in the band, which calls neither.
    Calls that do not go through it record nothing."""
    routes, active = [], []
    unit_volumes, products = linalg._unit_volumes, linalg._products

    def counting_unit_volumes(units, lengths):
        if active:
            routes[-1] = "stack"
        return unit_volumes(units, lengths)

    def counting_products(k, factors, more=None):
        if active and routes[-1] == "plain":
            routes[-1] = "products"
        return products(k, factors, more)

    def volumes(cfg, tuples):
        routes.append("plain")
        active.append(True)
        try:
            return _volumes(cfg, tuples)
        finally:
            active.pop()

    monkeypatch.setattr(linalg, "_unit_volumes", counting_unit_volumes)
    monkeypatch.setattr(linalg, "_products", counting_products)
    return routes, volumes


def _band_tuples(rng, n, d):
    """Generic tuples; a row scaled by 2**(+-(b + delta)) for delta in -3..3,
    b = 1020 // 2n, one at a length of exactly such a power and one at
    about it; a zero row; a duplicated row; exactly dependent rows (a row
    twice another, and in a square tuple a row that sums two others); and
    rows that are equal unit vectors, whose r_22 is exactly 0; and at n = 3
    three tuples whose products leave the normal range."""
    b = 1020 // (2 * n)
    tuples = list(rng.uniform(-1.0, 1.0, (4, n, d)))
    for delta in range(-3, 4):
        for sign in (1, -1):
            scale = 2.0 ** (sign * (b + delta))
            exact, about = rng.uniform(-1.0, 1.0, (2, n, d))
            exact[0] = scale * np.eye(d)[0]
            about[-1] *= scale
            tuples += [exact, about]
    t = rng.uniform(-1.0, 1.0, (n, d))
    t[n // 2] = 0.0
    tuples.append(t)
    if n > 1:
        t = rng.integers(-4, 5, (n, d)).astype(float)
        t[1] = t[0]
        tuples.append(t.copy())
        t[1] = 2.0 * t[0]
        tuples.append(t.copy())
        t[:2] = np.eye(d)[0]
        tuples.append(t)
    if n > 2 and d == n:
        t = rng.integers(-4, 5, (n, d)).astype(float)
        t[2] = t[0] + t[1]
        tuples.append(t)
    if n == 3:
        # two |r_ii| near 1e-160 below the band; a partial product of the
        # lengths that goes subnormal; |r_ii| whose product underflows
        for rows in (SUBNORMAL_R, np.diag([1e-160, 1e-160, 1e160]), [1e200 * E[0], [1e200, 1.0, 0.0], [1e200, 0.0, 1.0]]):
            t = np.zeros((n, d))
            t[:, :3] = rows
            tuples.append(t)
    return tuples


@pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("n", range(1, 8))
def test_one_tuple_volumes_are_the_stacks_bit_for_bit(n, spd, monkeypatch):
    # a single tuple skips the stack's bookkeeping where its lengths and
    # |r_ii| lie in the band of `_products`, and takes the stack's route
    # elsewhere: either way the bits of the stack of that one tuple
    routes, volumes = _route_counter(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(n, 10):
            cfg = SpaceConfig(dim=d, arity=n, metric=_spd(d) if spd else None)
            for t in _band_tuples(np.random.default_rng(100 * n + d), n, d):
                stacked, stacked_lengths = volumes(cfg, t[None])
                assert routes[-1] == "stack"
                (one,), lengths = volumes(cfg, t)
                assert lengths == stacked_lengths
                assert one.hex() == stacked[0].hex()
                assert standard_norm(cfg, t).hex() == one.hex()
                assert standard_norm(cfg, list(t)).hex() == one.hex()
    # every route was taken by a single tuple: the plain product,
    # `_products` on a zero or tiny r_ii and, outside the band, the stack's
    assert set(routes[1::2]) == ({"plain", "products", "stack"} if n > 1 else {"plain", "stack"})


def test_an_overflowing_length_is_nan_on_both_routes():
    # a finite row whose length overflows divides to a zero unit row, and
    # inf times its zero r_ii is NaN, on the stack's route and a single
    # tuple's alike (the value, about 2.2e298, is representable)
    cfg = SpaceConfig(dim=6, arity=2)
    t = np.array([np.full(6, 1e308), [1e-10, 0.0, 0.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_volumes(cfg, t)[0][0])
        assert _volumes(cfg, t)[0][0].hex() == _volumes(cfg, t[None])[0][0].hex() == standard_norm(cfg, t).hex()


def test_an_overflowing_whitened_entry_is_an_inf_length_without_a_warning():
    # under a metric, the whitening product of a finite row can pass the
    # double range; the row's length is then inf, as the dot product gives a
    # finite row whose length overflows, and the volume is NaN on every
    # route, as above (the value is representable)
    cfg = SpaceConfig(dim=2, arity=2, metric=[[9.0, -8.9], [-8.9, 9.0]])
    t = np.array([[0.5, 0.25], [1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        volumes, lengths = _volumes(cfg, t)
        assert math.isfinite(lengths[0]) and lengths[1] == math.inf
        assert _row_lengths(cfg, t)[1] == lengths == unit_rows(cfg, t)[1]
        assert hadamard_scale(cfg, t) == math.inf
        assert math.isnan(volumes[0])
        assert volumes[0].hex() == _volumes(cfg, t[None])[0][0].hex() == standard_norm(cfg, t).hex()
