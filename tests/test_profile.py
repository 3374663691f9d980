"""The closed-form class-1 profile against its references: the generic
per-tuple path (an injected evaluator around `standard_norm`), 50-digit
Gram determinants in mpmath, and exact rescaling; and the sampled verdicts
read off either path."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import generic_profile

from nnormkit.linalg import SpaceConfig, hadamard_scale
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import (
    Frame,
    IndexSet,
    ScaleOutOfRange,
    class1_norm,
    class_collection,
    classm_norm,
    in_kept_span,
    is_quotient_zero,
    quotient_norm_axioms,
    quotient_profile,
    random_frame,
    standard_frame,
)
from nnormkit.topology import (
    constant,
    convergent_power,
    converges_wrt,
    custom_sequence,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    oscillating,
)

#: fast and generic values may differ by this much, relative to the Hadamard
#: scale of the evaluated tuple. Both are backward stable orthogonal
#: factorizations; over 900 vectors on 300 random shapes they differed by at
#: most 7.6e-16, so this leaves a hundredfold margin
FAST_VS_GENERIC = 1e-13
#: the generic path multiplies the same lengths as hadamard_scale in another
#: order: at most n - 1 <= 4 roundings on each side
GENERIC_SCALE_REL = 1e-15


def generic(cfg: SpaceConfig) -> NNorm:
    return NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs))


def spd_metric(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


def assert_profiles_match(frame, cfg, vectors):
    fast, slow = standard_nnorm(cfg), generic(cfg)
    for u in vectors:
        p, q = quotient_profile(frame, fast, u), quotient_profile(frame, slow, u)
        assert np.all(np.abs(p.values - q.values) <= FAST_VS_GENERIC * q.scales), (p.values, q.values)
        np.testing.assert_allclose(p.scales, q.scales, rtol=1e-13)
        for j in range(1, frame.n + 1):
            tuple_scale = hadamard_scale(cfg, [u] + frame.without(j))
            assert q.scales[j - 1] == pytest.approx(tuple_scale, rel=GENERIC_SCALE_REL, abs=0.0)
        for s in class_collection(frame.n, 1):
            assert is_quotient_zero(frame, fast, u, s) == is_quotient_zero(frame, slow, u, s)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    extra=st.sampled_from([0, 1, 3]),
    metric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_profile_matches_generic_path(n, extra, metric, seed):
    rng = np.random.default_rng(seed)
    d = n + extra
    cfg = SpaceConfig(dim=d, arity=n, metric=spd_metric(rng, d) if metric else None)
    frame = random_frame(cfg, rng)
    rows = frame.vectors
    vectors = [
        rng.uniform(-1.0, 1.0, d),
        rows.T @ rng.uniform(-1.0, 1.0, n),  # in the frame's span
        rows[0] + 1e-6 * rng.uniform(-1.0, 1.0, d),
        np.zeros(d),
    ]
    assert_profiles_match(frame, cfg, vectors)


def test_norm_metric_is_honoured_over_the_frame_metric():
    rng = np.random.default_rng(5)
    plain = SpaceConfig(dim=4, arity=3)
    curved = SpaceConfig(dim=4, arity=3, metric=spd_metric(rng, 4))
    frame = random_frame(plain, rng)
    vectors = [rng.uniform(-1.0, 1.0, 4) for _ in range(20)]
    for cfg in (plain, curved):
        assert_profiles_match(frame, cfg, vectors)
        fast, slow = standard_nnorm(cfg), generic(cfg)
        s = IndexSet([1, 3])
        for u in vectors:
            assert classm_norm(frame, fast, u, s) == pytest.approx(classm_norm(frame, slow, u, s), rel=1e-12)
    u = vectors[0]
    one = IndexSet([1])
    assert classm_norm(frame, standard_nnorm(curved), u, one) != pytest.approx(
        classm_norm(frame, standard_nnorm(plain), u, one), rel=1e-3
    )


def exact_class1(frame, u, j):
    """sqrt(det Gram(u, Y without y_j)) at 50 digits, identity metric."""
    rows = [[mpmath.mpf(x) for x in r] for r in [u.tolist()] + [v.tolist() for v in frame.without(j)]]
    gram = mpmath.matrix([[mpmath.fsum(x * y for x, y in zip(a, b)) for b in rows] for a in rows])
    return mpmath.sqrt(max(mpmath.det(gram), 0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_square_frames_against_mpmath(n):
    # d = n is where Gram determinants lose the most: every class-1 value
    # there is volume times a coefficient, and small coefficients cancel.
    # Over 400 vectors on n = 2..5 the worst errors were 5.3e-16 of the
    # Hadamard scale and 3.8e-13 of the value
    rng = np.random.default_rng(40 + n)
    cfg = SpaceConfig(dim=n, arity=n)
    frame = random_frame(cfg, rng)
    norm = standard_nnorm(cfg)
    rows = frame.vectors
    with mpmath.workdps(50):
        for t in range(20):
            u = rng.uniform(-1.0, 1.0, n)
            if t % 2:
                u = rows.T @ rng.uniform(-1.0, 1.0, n)
                u += 1e-5 * rows[int(rng.integers(0, n))]  # small values on every other j
            profile = quotient_profile(frame, norm, u)
            for j in range(1, n + 1):
                exact = exact_class1(frame, u, j)
                err = abs(mpmath.mpf(profile.values[j - 1]) - exact)
                assert float(err) <= 4e-15 * profile.scales[j - 1]
                if exact > 1e-6 * profile.scales[j - 1]:
                    assert float(err / exact) <= 1e-10


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-200])
def test_values_scale_exactly_with_the_vector(scale):
    # a Gram matrix of 1e200 * u overflows and one of 1e-200 * u underflows
    cfg = SpaceConfig(dim=4, arity=3)
    frame = random_frame(cfg, np.random.default_rng(3))
    norm = standard_nnorm(cfg)
    rng = np.random.default_rng(4)
    s = IndexSet([1, 3])
    for _ in range(10):
        u = rng.uniform(-1.0, 1.0, 4)
        assert class1_norm(frame, norm, scale * u, 1) == pytest.approx(scale * class1_norm(frame, norm, u, 1), rel=1e-14)
        assert classm_norm(frame, norm, scale * u, s) == pytest.approx(scale * classm_norm(frame, norm, u, s), rel=1e-14)


@pytest.mark.parametrize("seed", [103, 105, 106])
def test_square_frame_axioms_pass_where_a_frame_row_recurs(seed):
    # the axiom sampler and the frame generator start from the same seed,
    # so a sampled u lands in the kept span; homogeneity then compares two
    # values at rounding level, which Gram determinants put near 1e-8
    cfg = SpaceConfig(dim=3, arity=3)
    frame = random_frame(cfg, np.random.default_rng(seed))
    reports = quotient_norm_axioms(frame, standard_nnorm(cfg), IndexSet([2]), 6, seed)
    assert all(r.passed for r in reports), [(r.axiom, r.witness) for r in reports if not r.passed]


def test_generic_path_evaluates_only_the_named_columns():
    cfg = SpaceConfig(dim=5, arity=4)
    frame = random_frame(cfg, np.random.default_rng(8))
    seen = []

    def evaluator(vs):
        seen.append(len(vs))
        return standard_norm(cfg, vs)

    counting = NNorm(cfg, "injected", evaluator)
    u = np.random.default_rng(9).uniform(-1.0, 1.0, 5)
    profile = quotient_profile(frame, counting, u, IndexSet([2, 4]))
    assert len(seen) == 2
    assert np.isnan(profile.values[[0, 2]]).all()
    assert classm_norm(frame, counting, u, IndexSet([2, 4])) == profile.value(IndexSet([2, 4]))


def _generic_frames(seed):
    """(label, frame) per shape of the generic comparison: four
    dot-product shapes, one with an SPD metric, and two (3, 4) frames whose
    products of other rows' lengths leave the double range (rows 1e+-200),
    so that P_j carries a shift."""
    rng = np.random.default_rng(seed)
    frames = []
    for n, d, metric in [(3, 3, False), (3, 5, False), (5, 5, False), (5, 6, False), (4, 5, True)]:
        cfg = SpaceConfig(dim=d, arity=n, metric=spd_metric(rng, d) if metric else None)
        frames.append((f"n={n} d={d}" + (" spd" if metric else ""), random_frame(cfg, rng)))
    cfg = SpaceConfig(dim=4, arity=3)
    for sizes in ([1e200, 1e200, 1e-200], [1e-200, 1e-200, 1e200]):
        rows = random_frame(cfg, rng).vectors * np.array(sizes)[:, None]
        frames.append((f"n=3 d=4 rows={sizes}", Frame(cfg, rows)))
    return frames


def _recorded(profile_of, frame, evaluate, u, columns):
    """What one generic profile gives: its values, scales and zero flags as
    float.hex and bools, or the exception's type, message and column; and
    each evaluator call's tuple, as the type and bytes of each vector."""
    calls = []

    def evaluator(vs):
        calls.append([(type(v), v.tobytes()) for v in vs])
        return evaluate(frame.space, vs)

    norm = NNorm(frame.space, "injected", evaluator)
    try:
        values, scales, zero = profile_of(frame, norm, u, columns)
    except ValueError as err:
        return (type(err).__name__, str(err), getattr(err, "index", None)), calls
    return ([float(x).hex() for x in values], [float(x).hex() for x in scales], zero.tolist()), calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_profile_matches_its_array_reference(seed):
    # the per-column work on Python floats against the reference on float64
    # arrays: every bit, every evaluator call, and where a scale leaves the
    # range, the same ScaleOutOfRange at the same column after the same
    # calls; an evaluator returning float32 or None is stored as a float64
    # array entry stores it
    def package(frame, norm, u, columns):
        profile = quotient_profile(frame, norm, u, columns)
        return profile.values, profile.scales, profile.zero

    def float32(cfg, vs):
        with np.errstate(over="ignore"):  # 1e150 rows pass the float32 range
            return np.float32(standard_norm(cfg, vs))

    evaluators = {"float": standard_norm, "float32": float32, "none": lambda cfg, vs: None}
    rng = np.random.default_rng(100 + seed)
    outcomes = set()
    for label, frame in _generic_frames(seed):
        n, d = frame.n, frame.dim
        direction = rng.uniform(-1.0, 1.0, d)
        vectors = [np.zeros(d)] + [direction * size for size in (1.0, 1e150, 1e-150)]
        vectors += [np.where(np.arange(d) == d - 1, bad, direction) for bad in (np.nan, np.inf)]
        for u in vectors:
            for columns in ([1], [n], list(range(1, n + 1))):
                for name, evaluate in evaluators.items():
                    got, calls = _recorded(package, frame, evaluate, u, columns)
                    assert (got, calls) == _recorded(generic_profile, frame, evaluate, u, columns), (label, u.tolist(), columns, name)
                    if isinstance(got[0], str):
                        outcomes.add(got[0] + (" after a call" if calls else ""))
                        continue
                    outcomes.add("profile")
                    values, scales, zero = got
                    for j in set(range(1, n + 1)) - set(columns):
                        assert values[j - 1] == scales[j - 1] == "nan" and not zero[j - 1]
    assert outcomes >= {"profile", "ScaleOutOfRange", "ScaleOutOfRange after a call", "ValueError"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_generic_profile_of_zero_is_the_closed_form(seed):
    # a zero scale is in range whatever the shift of the frame's product of
    # other lengths, so the zero vector gets zero values, scales and flags
    for label, frame in _generic_frames(seed):
        cfg, u = frame.space, np.zeros(frame.dim)
        fast, slow = quotient_profile(frame, standard_nnorm(cfg), u), quotient_profile(frame, generic(cfg), u)
        for got, want in [(slow.values, fast.values), (slow.scales, fast.scales), (slow.zero, fast.zero)]:
            assert got.tobytes() == want.tobytes(), label
        assert not fast.values.any() and fast.zero.all()


def test_a_scale_past_the_double_range_is_named():
    # the scales against y_2 and y_3 are about 5e399; ldexp made them inf
    # after an overflow warning
    cfg = SpaceConfig(dim=3, arity=3)
    frame = Frame(cfg, np.diag([1e200, 1.0, 1.0]))
    u = 0.5 * frame.row(1) + 0.3 * frame.row(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleOutOfRange, match=r"y_2\) is about 5.00e\+399, beyond") as caught:
            quotient_profile(frame, standard_nnorm(cfg), u)
        with pytest.raises(ScaleOutOfRange):
            quotient_norm_axioms(frame, standard_nnorm(cfg), IndexSet([2]), 8, 1)
    assert caught.value.index == 2
    assert caught.value.log10_scale == pytest.approx(399 + math.log10(5.0), abs=1e-12)


@pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
def test_profiles_scale_exactly_up_to_the_edge_of_the_range(metric):
    # u times 2**k: every value and scale is the profile of u times 2**k,
    # bit for bit, while each is a double, and ScaleOutOfRange from the first
    # k where one is not
    cfg = SpaceConfig(dim=3, arity=3, metric=spd_metric(np.random.default_rng(5), 3) if metric else None)
    frame = Frame(cfg, np.diag([1e200, 1.0, 1.0]))
    norm = standard_nnorm(cfg)
    u = np.array([0.3, 0.7, -0.2])
    base = quotient_profile(frame, norm, u)
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(300, 400):
            with np.errstate(over="ignore"):
                values, scales = np.ldexp(base.values, k), np.ldexp(base.scales, k)
            representable = np.isfinite(values).all() and np.isfinite(scales).all()
            outcomes.add(representable)
            if representable:
                profile = quotient_profile(frame, norm, np.ldexp(u, k))
                assert profile.values.tobytes() == values.tobytes()
                assert profile.scales.tobytes() == scales.tobytes()
                assert profile.zero.tolist() == base.zero.tolist()
            else:
                with pytest.raises(ScaleOutOfRange):
                    quotient_profile(frame, norm, np.ldexp(u, k))
    assert outcomes == {True, False}


def test_a_frame_whose_product_overflows_keeps_its_representable_columns():
    # P_3 = 1e400 is not a double, so neither is the scale of e_1 against
    # y_3; the columns asked for are, and come back without a warning (the
    # product used to be inf, and inf * 0 a NaN with an "invalid" warning)
    cfg = SpaceConfig(dim=3, arity=3)
    frame = Frame(cfg, np.diag([1e200, 1e200, 1.0]))
    u = np.array([1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (standard_nnorm(cfg), generic(cfg)):
            assert class1_norm(frame, norm, u, 1) == 1e200
            assert classm_norm(frame, norm, u, IndexSet([1, 2])) == 1e200
            assert is_quotient_zero(frame, norm, u, IndexSet([2]))
            profile = quotient_profile(frame, norm, u, (1, 2))
            assert profile.scales[:2].tolist() == [1e200, 1e200]
            assert np.isnan(profile.values[2]) and np.isnan(profile.scales[2])
            with pytest.raises(ScaleOutOfRange, match=r"y_3\) is about 1.00e\+400, beyond") as caught:
                class1_norm(frame, norm, u, 3)
            assert caught.value.index == 3


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_products_past_the_double_range_give_exact_values(size):
    # P_3 = size**2 overflows to inf or underflows to 0.0 as a plain
    # product; u is scaled so that every value and scale is a double. On a
    # diagonal frame the value against y_j is |u_j| * P_j and the scale is
    # |u| * P_j, taken here in mpmath; none of them is zero
    cfg = SpaceConfig(dim=3, arity=3)
    frame = Frame(cfg, np.diag([size, size, 1.0]))
    u = np.array([0.3, 0.7, -0.2]) * (1e-300 if size > 1 else 1e300)
    products = [mpmath.mpf(size), mpmath.mpf(size), mpmath.mpf(size) ** 2]
    u_length = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in u.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (standard_nnorm(cfg), generic(cfg)):
            profile = quotient_profile(frame, norm, u)
            for j, product in enumerate(products):
                assert profile.values[j] == pytest.approx(float(abs(mpmath.mpf(u[j])) * product), rel=1e-15)
                assert profile.scales[j] == pytest.approx(float(u_length * product), rel=1e-15)
            assert not profile.zero.any()


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_generic_scales_stay_in_range(size):
    # a scale taken through squared lengths is inf at 1e200 (so every value
    # classified as zero) and 0.0 at 1e-200
    cfg = SpaceConfig(dim=3, arity=2)
    frame = standard_frame(cfg)
    u = np.array([0.0, 0.0, size])
    s = IndexSet([1])
    assert hadamard_scale(cfg, [u, frame.row(2)]) == size
    assert not in_kept_span(frame, u, s)
    for norm in (standard_nnorm(cfg), generic(cfg)):
        profile = quotient_profile(frame, norm, u)
        np.testing.assert_allclose(profile.scales, [size, size], rtol=1e-15)
        np.testing.assert_allclose(profile.values, [size, size], rtol=1e-15)
        assert not is_quotient_zero(frame, norm, u, s)


@pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize(
    "u",
    [[np.nan, 0, 0], [0, np.nan, 0], [0, 0, np.inf], [1, -np.inf, 0], [0, -np.inf, np.nan], [np.nan, np.inf, 2]],
)
def test_geometry_names_non_finite_vectors(u, metric):
    # the geometry takes unchecked arrays from the verdicts: it must name a
    # NaN or an infinity wherever it sits, and add no warning from inf * 0
    cfg = SpaceConfig(dim=3, arity=2, metric=spd_metric(np.random.default_rng(2), 3) if metric else None)
    geometry = standard_frame(cfg).geometry(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite coordinates"):
            geometry.profile(np.array(u, dtype=float))


def _tables(rng, frame):
    d, rows = frame.dim, frame.vectors
    x = rng.uniform(-1.0, 1.0, d)
    in_span = rows.T @ rng.uniform(-1.0, 1.0, frame.n)
    specs = [
        (convergent_power(x, rng.uniform(-1.0, 1.0, d), coefficient=1.5), x),
        (convergent_power(x, in_span, coefficient=1.5), x),
        (oscillating(x, rng.uniform(-1.0, 1.0, d), coefficient=0.75), x),
        (constant(x), x + rng.uniform(-1.0, 1.0, d)),
        (constant(x), x + in_span),
    ]
    return [(custom_sequence([(k, eval_sequence(spec, k)) for k in range(1, 7)]), limit) for spec, limit in specs]


def _verdicts(table, frame, norm, selection, limit):
    return (
        converges_wrt(table, frame, norm, selection, limit),
        is_cauchy_wrt(table, frame, norm, selection),
        is_bounded_wrt(table, frame, norm, selection),
    )


def _largest_scale(frame, norm, table, limit):
    """Largest summed Hadamard scale of any vector the verdicts profile."""
    points = [v for _, v in table.table]
    vectors = points + [v - limit for v in points] + [a - b for a in points for b in points]
    return max(float(np.sum(quotient_profile(frame, norm, w).scales)) for w in vectors)


@pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("extra", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sampled_verdicts_agree_between_fast_and_generic_paths(n, extra, metric):
    rng = np.random.default_rng(1000 + 10 * n + extra + 100 * metric)
    d = n + extra
    cfg = SpaceConfig(dim=d, arity=n, metric=spd_metric(rng, d) if metric else None)
    frame = random_frame(cfg, rng)
    fast, slow = standard_nnorm(cfg), generic(cfg)
    for table, limit in _tables(rng, frame):
        tol = FAST_VS_GENERIC * _largest_scale(frame, fast, table, limit)
        for m in sorted({1, n}):
            selection = full_selection(n, m)
            for p, q in zip(_verdicts(table, frame, fast, selection, limit), _verdicts(table, frame, slow, selection, limit)):
                assert (p.conclusion, p.method, p.window) == (q.conclusion, q.method, q.window)
                assert [(e.k, e.subset) for e in p.evidence] == [(e.k, e.subset) for e in q.evidence]
                np.testing.assert_allclose([e.value for e in p.evidence], [e.value for e in q.evidence], rtol=0.0, atol=tol)
                if p.bound is not None:
                    assert abs(p.bound - q.bound) <= tol


def exact_distance_ratio(frame, cfg, u, j):
    """dist(u, span(Y without y_j)) / |u| in the metric of cfg, at 50
    digits: the square root of det G(u, others) / (det G(others) |u|^2)."""
    metric = mpmath.matrix(cfg.metric_matrix().tolist())
    rows = [u.tolist()] + [v.tolist() for v in frame.without(j)]
    r = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in rows])
    gram = r * metric * r.T
    others = gram[1:, 1:] if len(rows) > 1 else mpmath.matrix([[1]])
    return mpmath.sqrt(max(mpmath.det(gram), 0) / (mpmath.det(others) * gram[0, 0]))


@pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (5, 5), (3, 5), (4, 6)])
def test_zero_flags_are_the_distance_rule_against_mpmath(n, d, metric):
    # the flag at j says dist(u, span(Y without y_j)) <= tol.zero |u|; the
    # computed distance errs by about eps cond(R) of the frame factor, so
    # outside a factor-of-10 band around the threshold both paths must agree
    # with the 50-digit distance
    rng = np.random.default_rng(7 * n + d)
    cfg = SpaceConfig(dim=d, arity=n, metric=spd_metric(rng, d) if metric else None)
    tol = cfg.tol.zero
    norms = (standard_nnorm(cfg), generic(cfg))
    sides = set()
    with mpmath.workdps(50):
        for _ in range(2):
            frame = random_frame(cfg, rng)
            for j in range(1, n + 1):
                kept = np.array(frame.without(j)).reshape(n - 1, d)
                for exponent in np.linspace(-13.0, -5.0, 9):
                    u = kept.T @ rng.uniform(-1.0, 1.0, n - 1) + 10.0**exponent * rng.uniform(-1.0, 1.0, d)
                    ratio = exact_distance_ratio(frame, cfg, u, j)
                    if tol / 10 < ratio < 10 * tol:
                        continue
                    sides.add(bool(ratio <= tol))
                    for norm in norms:
                        flag = bool(quotient_profile(frame, norm, u, (j,)).zero[j - 1])
                        assert flag == (ratio <= tol), (j, float(ratio), norm.kind)
    assert sides == {True, False}
