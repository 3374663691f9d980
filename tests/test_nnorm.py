import itertools
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnormkit import linalg, nnorm
from nnormkit.linalg import DimensionMismatch, SpaceConfig, Tolerance, hadamard_scale, rank
from nnormkit.nnorm import (
    Axiom,
    AxiomReport,
    NNorm,
    Witness,
    check_axioms,
    shift_invariance_check,
    standard_nnorm,
    standard_norm,
)

from oracles import cofactor_det, per_tuple_shift_gap


def cfg_of(n, d, metric=None):
    return SpaceConfig(dim=d, arity=n, metric=metric)


class TestStandardNorm:
    def test_orthonormal_pair_spans_unit_square(self):
        cfg = cfg_of(2, 3)
        assert standard_norm(cfg, [[1, 0, 0], [0, 1, 0]]) == 1.0

    def test_dependent_triple_is_zero(self):
        cfg = cfg_of(3, 4)
        v1 = np.array([1.0, 0.5, 0.0, -1.0])
        v2 = np.array([0.0, 2.0, 1.0, 0.3])
        assert standard_norm(cfg, [v1, v2, v1 + v2]) <= 1e-7

    def test_rectangle_area(self):
        # area oracle: product of orthogonal side lengths = 2 * 3; the
        # cofactor oracle on the Gram matrix agrees
        cfg = cfg_of(2, 3)
        vs = [[2, 0, 0], [0, 3, 0]]
        assert standard_norm(cfg, vs) == pytest.approx(6.0, rel=1e-12)
        g = [[4.0, 0.0], [0.0, 9.0]]
        assert math.sqrt(cofactor_det(g)) == pytest.approx(6.0)

    def test_wrong_arity_rejected(self):
        cfg = cfg_of(2, 3)
        with pytest.raises(DimensionMismatch):
            standard_norm(cfg, [[1, 0, 0]])

    def test_wrong_dimension_rejected(self):
        cfg = cfg_of(2, 3)
        with pytest.raises(DimensionMismatch):
            standard_norm(cfg, [[1, 0], [0, 1]])

    def test_zero_iff_rank_deficient(self):
        cfg = cfg_of(3, 5)
        rng = np.random.default_rng(123)
        for _ in range(200):
            vs = list(rng.uniform(-1, 1, (3, 5)))
            if rng.uniform() < 0.5:
                vs[2] = 0.25 * vs[0] - 1.5 * vs[1]
            value = standard_norm(cfg, vs)
            dependent = rank(vs) < 3
            scaled_zero = value <= 1e-7 * max(hadamard_scale(cfg, vs), 1e-300)
            assert dependent == scaled_zero

    @pytest.mark.parametrize("small, large", [(1e-160, 1e160), (1e-200, 1e200)])
    def test_lengths_hundreds_of_orders_apart(self, small, large):
        # a Gram matrix of these overflows, or loses the small vector
        cfg = cfg_of(2, 2)
        assert standard_norm(cfg, [[large, 0.0], [0.0, small]]) == pytest.approx(1.0, rel=1e-15)
        assert standard_norm(cfg, [[small, 0.0], [0.0, large]]) == pytest.approx(1.0, rel=1e-15)

    def test_small_vector_nearly_parallel_to_a_unit_one(self):
        # independent at 5e-9 of the small vector's own length: rank says so,
        # and the value must not collapse to the 0.0 a Gram determinant gives
        cfg = cfg_of(2, 3)
        vs = [
            np.array([0.2056836, -0.90300418, 0.37719718]),
            np.array([-4.20123254e-05, 1.84444968e-04, -7.70451821e-05]),
        ]
        assert rank(vs) == 2
        assert standard_norm(cfg, vs) > cfg.tol.zero * hadamard_scale(cfg, vs)


class TestCheckAxioms:
    def test_standard_norm_passes_all(self):
        for n, d in [(2, 2), (2, 4), (3, 4), (4, 5)]:
            norm = standard_nnorm(cfg_of(n, d))
            reports = check_axioms(norm, trials=60, seed=99)
            assert len(reports) == 7
            failed = [r for r in reports if not r.passed]
            assert failed == []

    def test_standard_norm_passes_under_custom_metric(self):
        metric = np.diag([2.0, 1.0, 0.5, 1.5]) + 0.1
        norm = standard_nnorm(cfg_of(3, 4, metric=metric))
        reports = check_axioms(norm, trials=40, seed=5)
        assert all(r.passed for r in reports)

    def test_broken_norm_fails_definiteness_backward(self):
        # "norm" = sum of |first coordinates|: positive on many dependent tuples
        cfg = cfg_of(3, 4)
        broken = NNorm(cfg=cfg, kind="custom", evaluator=lambda vs: float(sum(abs(v[0]) for v in vs)))
        reports = {r.axiom: r for r in check_axioms(broken, trials=80, seed=10)}
        backward = reports[Axiom.DEFINITENESS_BACKWARD]
        assert not backward.passed
        assert backward.witness is not None
        assert backward.witness.discrepancy > cfg.tol.rel
        # the witness really is dependent with a nonzero value
        assert rank(list(backward.witness.vectors), cfg.tol) < cfg.arity

    def test_scaled_euclidean_fails_homogeneity(self):
        cfg = cfg_of(2, 3)
        squared = NNorm(cfg=cfg, kind="custom", evaluator=lambda vs: standard_norm(cfg, vs) ** 2)
        reports = {r.axiom: r for r in check_axioms(squared, trials=60, seed=3)}
        assert not reports[Axiom.ABSOLUTE_HOMOGENEITY].passed

    def test_trials_zero_rejected(self):
        norm = standard_nnorm(cfg_of(2, 3))
        with pytest.raises(ValueError):
            check_axioms(norm, trials=0, seed=1)
        # 2.0 means 2; 2.5 is named, not truncated
        with pytest.raises(ValueError, match="trials 2.5 is not an integer"):
            check_axioms(norm, trials=2.5, seed=1)
        assert pickle.dumps(check_axioms(norm, trials=2.0, seed=1)) == pickle.dumps(check_axioms(norm, trials=2, seed=1))

    def test_deterministic_given_seed(self):
        norm = standard_nnorm(cfg_of(3, 4))
        a = check_axioms(norm, trials=25, seed=77)
        b = check_axioms(norm, trials=25, seed=77)
        assert [(r.axiom, r.passed) for r in a] == [(r.axiom, r.passed) for r in b]

    def test_draws_each_batch_once(self, monkeypatch):
        calls = []
        for name in ("boundary_batch", "equality_batch"):

            def counting(sampler, trials, original=getattr(nnorm._Sampler, name), name=name):
                calls.append(name)
                return original(sampler, trials)

            monkeypatch.setattr(nnorm._Sampler, name, counting)
        check_axioms(standard_nnorm(cfg_of(3, 4)), trials=50, seed=7)
        assert sorted(calls) == ["boundary_batch", "equality_batch"]

    @pytest.mark.parametrize("n, d, metric", [(3, 4, None), (5, 6, None), (2, 3, np.diag([2.0, 1.0, 0.5]))])
    def test_reports_equal_a_fresh_draw_per_check(self, n, d, metric):
        # a norm weighted by its first vector fails the checks whose extra
        # draws (permutations, scale factors, added vectors, shifts) come
        # after the shared batch, so witnesses expose any drift in them
        cfg = cfg_of(n, d, metric)
        norm = NNorm(cfg, "weighted", lambda vs: standard_norm(cfg, vs) * (1.0 + abs(vs[0][0])))
        reports = check_axioms(norm, trials=30, seed=8)
        assert sum(not r.passed for r in reports) >= 3
        for (axiom, draw, check), report in zip(nnorm._CHECKS, reports):
            sampler = nnorm._Sampler(cfg, np.random.default_rng(8))
            witness = check(norm, getattr(sampler, draw)(30).evaluate(norm), sampler.rng)
            expected = AxiomReport(axiom=axiom, passed=witness is None, trials=30, witness=witness)
            assert pickle.dumps(report) == pickle.dumps(expected)

    @pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(n, n + k) for n in range(1, 6) for k in (0, 1, 3)])
    def test_stacked_reports_equal_the_per_tuple_loop(self, n, d, spd):
        # the standard kind evaluates stacked batches; the injected norm runs
        # the same standard_norm once per tuple, so the reports, witnesses
        # included, must agree byte for byte. At rel = 1e-300 every rounding
        # gap fails, so the witnesses carry the worst values of each check.
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        for tol, seeds in [(Tolerance(), (20260808, 7, 99)), (Tolerance(rel=1e-300), (20260808,))]:
            cfg = SpaceConfig(dim=d, arity=n, metric=metric, tol=tol)
            looped = NNorm(cfg, "injected", lambda vs, cfg=cfg: standard_norm(cfg, vs))
            for seed in seeds:
                stacked = check_axioms(standard_nnorm(cfg), trials=20, seed=seed)
                assert pickle.dumps(stacked) == pickle.dumps(check_axioms(looped, trials=20, seed=seed))
        # and every value and scale of the drawn batches, bit for bit
        sampler = nnorm._Sampler(cfg, np.random.default_rng(5))
        for batch in (sampler.boundary_batch(40), sampler.dependent_batch(40), sampler.equality_batch(40)):
            batch.evaluate(standard_nnorm(cfg))
            assert batch.values == [standard_norm(cfg, vs) for vs in batch.tuples]
            assert batch.scales == [hadamard_scale(cfg, vs) for vs in batch.tuples]

    @pytest.mark.parametrize("n, d, perms", [(1, 2, 1), (2, 3, 2), (3, 3, 6), (4, 5, 24), (5, 6, 8)])
    def test_injected_evaluator_calls_per_trial(self, n, d, perms):
        # per tuple: one shared boundary value, one dependent value, one
        # shared equality base value (which shift invariance reads too), the
        # permutations, one scaled tuple, a summed and an alternative tuple,
        # and one shifted tuple
        cfg = cfg_of(n, d)
        calls = []
        norm = NNorm(cfg, "injected", lambda vs: calls.append(1) or standard_norm(cfg, vs))
        check_axioms(norm, trials=7, seed=3)
        assert len(calls) == 7 * (perms + 7)

    @pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(1, 2), (3, 5), (5, 6)])
    def test_injected_evaluator_measures_the_rows_standard_measures(self, n, d, spd):
        # an injected norm's derived stacks reuse the batch's unit rows and
        # lengths, as the standard kind's do, so an evaluator that never
        # calls linalg leaves the row count where the standard kind has it.
        # The profiler counts calls of the function under any name bound to it
        cfg = cfg_of(n, d, np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None)
        norms = {"standard": standard_nnorm(cfg), "injected": NNorm(cfg, "injected", lambda vs: 1.0)}
        measured = dict.fromkeys(norms, 0)
        for name, norm in norms.items():

            def counting(frame, event, returned, name=name):
                if event == "return" and frame.f_code is linalg._row_lengths.__code__:
                    measured[name] += len(returned[1])

            sys.setprofile(counting)
            try:
                check_axioms(norm, trials=40, seed=3)
            finally:
                sys.setprofile(None)
        assert measured["injected"] == measured["standard"] > 0

    @pytest.mark.parametrize("n, d", [(1, 2), (3, 4), (5, 6)])
    def test_standard_kind_makes_no_per_tuple_standard_norm_calls(self, n, d, monkeypatch):
        # every check, shift invariance included, evaluates stacks; the
        # evaluator is called once, on its probe, when the norm is made
        calls = []
        original = nnorm.standard_norm
        monkeypatch.setattr(nnorm, "standard_norm", lambda cfg, vs: calls.append(1) or original(cfg, vs))
        norm = standard_nnorm(cfg_of(n, d))
        assert len(calls) == 1
        for trials in (7, 21):
            calls.clear()
            check_axioms(norm, trials=trials, seed=3)
            assert len(calls) == 0
        shift_invariance_check(norm, np.eye(n, d), np.full(n - 1, 0.5))
        assert len(calls) == 0

    def test_standard_kind_with_another_evaluator_is_refused(self):
        # the stacked kernel stands in for a standard evaluator, so one that
        # is not `standard_norm` would go unchecked; it cannot be made
        cfg = cfg_of(3, 4)
        with pytest.raises(ValueError, match="standard kind"):
            NNorm(cfg, "standard", lambda vs: 2.0 * standard_norm(cfg, vs))

    def test_report_requires_witness_on_failure(self):
        with pytest.raises(ValueError):
            AxiomReport(axiom=Axiom.NONNEGATIVITY, passed=False, trials=1, witness=None)


def _not_standard(cfg):
    """Evaluators that are not `standard_norm` under cfg, by name."""
    other = SpaceConfig(dim=cfg.dim, arity=cfg.arity, metric=np.diag(np.linspace(0.5, 2.0, cfg.dim)) + 0.1)
    return {
        "doubled": lambda vs: 2.0 * standard_norm(cfg, vs),
        "squared": lambda vs: standard_norm(cfg, vs) ** 2,
        "weighted": lambda vs: standard_norm(cfg, vs) * (1.0 + abs(vs[0][0])),
        "lu-gram": lambda vs: math.sqrt(linalg.determinant(linalg.gram_matrix(cfg, vs))),
        "other-metric": lambda vs: standard_norm(other, vs),
    }


class TestNNormBoundary:
    """A standard label is checked once, when the norm is made, and every
    evaluator value is converted once, in `NNorm.__call__`."""

    @pytest.mark.parametrize("spd", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 4), (5, 5), (5, 6), (7, 8)])
    def test_a_standard_kind_that_is_not_standard_norm_cannot_be_made(self, n, d, spd):
        cfg = cfg_of(n, d, np.diag(np.linspace(1.0, 3.0, d)) + 0.2 if spd else None)
        assert standard_nnorm(cfg).kind == "standard"
        for name, evaluator in _not_standard(cfg).items():
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="standard kind"):
                NNorm(cfg, "standard", evaluator)
            NNorm(cfg, name, evaluator)  # any other kind is taken as given

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (3, 5)])
    def test_an_evaluator_that_returns_none_fails_with_nan_or_inf(self, n, d):
        # None converts to NaN, as in a float64 array, so the checks fail
        # with NaN or inf discrepancies rather than raise a TypeError; NaN
        # never collapses to zero, so forward definiteness passes
        reports = check_axioms(NNorm(cfg_of(n, d), "none", lambda vs: None), trials=10, seed=2)
        failing = {r.axiom for r in reports if not r.passed}
        assert failing == set(Axiom) - {Axiom.DEFINITENESS_FORWARD}
        for report in reports:
            assert report.passed or not math.isfinite(report.witness.discrepancy)

    def test_float32_values_are_float64_in_both_engines(self):
        from nnormkit.quotient import IndexSet, quotient_norm_axioms, random_frame

        cfg = cfg_of(2, 3)
        norm = NNorm(cfg, "float32", lambda vs: np.float32(standard_norm(cfg, vs)))
        assert type(norm(np.eye(2, 3))) is np.float64
        frame = random_frame(cfg, np.random.default_rng(1))
        for reports in (check_axioms(norm, trials=20, seed=3), quotient_norm_axioms(frame, norm, IndexSet([1, 2]), 6, 3)):
            # float32 rounding fails homogeneity at tol.rel = 1e-9
            values = [r.witness.detail[key] for r in reports if not r.passed for key in ("value", "base")]
            assert values
            assert all(np.asarray(v).dtype == np.float64 for v in values)


def _nan_on_large(cfg):
    # NaN whenever the first vector has an entry above 1.5
    return NNorm(cfg, "nan-on-large", lambda vs: math.nan if max(vs[0]) > 1.5 else standard_norm(cfg, vs))


def _nan_on_dependent(cfg):
    return NNorm(cfg, "nan-on-dependent", lambda vs: math.nan if rank(vs, cfg.tol) < cfg.arity else standard_norm(cfg, vs))


class TestWitnessRule:
    """Every check hands the witnesses of its failing decisions to
    `nnorm._worst`, and a gap decision fails unless gap <= threshold."""

    def test_worst_is_the_first_largest_with_nan_as_inf(self):
        def w(gap, tag):
            return Witness((), {"tag": tag}, gap)

        assert nnorm._worst([]) is None
        assert nnorm._worst(iter([])) is None
        assert nnorm._worst([w(1.0, "a"), w(3.0, "b"), w(3.0, "c"), w(2.0, "d")]).detail["tag"] == "b"
        assert nnorm._worst([w(1.0, "a"), w(math.nan, "b"), w(5.0, "c")]).detail["tag"] == "b"
        assert nnorm._worst([w(math.inf, "a"), w(math.nan, "b")]).detail["tag"] == "a"
        assert nnorm._worst([w(math.nan, "a"), w(math.inf, "b")]).detail["tag"] == "a"

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 4), (5, 6)])
    def test_a_nan_on_large_evaluator_fails_homogeneity_triangle_and_shift(self, n, d):
        reports = {r.axiom: r for r in check_axioms(_nan_on_large(cfg_of(n, d)), trials=40, seed=4)}
        for axiom in (Axiom.ABSOLUTE_HOMOGENEITY, Axiom.TRIANGLE_INEQUALITY, Axiom.SHIFT_INVARIANCE):
            assert not reports[axiom].passed, axiom
            assert math.isnan(reports[axiom].witness.discrepancy)
            assert max(reports[axiom].witness.vectors[0]) <= 1.0  # the drawn tuple; a moved one was NaN

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 4), (5, 6)])
    def test_a_nan_on_dependent_evaluator_fails_definiteness_backward(self, n, d):
        cfg = cfg_of(n, d)
        backward = {r.axiom: r for r in check_axioms(_nan_on_dependent(cfg), trials=20, seed=4)}[Axiom.DEFINITENESS_BACKWARD]
        assert not backward.passed
        assert math.isnan(backward.witness.discrepancy)
        # the first dependent tuple, since every one of them is NaN
        first = nnorm._Sampler(cfg, np.random.default_rng(4)).dependent_batch(20).tuples[0]
        assert np.array_equal(np.array(backward.witness.vectors), np.array(first))

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 4), (4, 5)])
    def test_forward_definiteness_reports_the_first_failing_tuple(self, n, d):
        # the squared norm of a tuple perturbed at 1e-6 falls under the zero
        # threshold while the rank oracle calls the tuple independent
        cfg = cfg_of(n, d)
        squared = NNorm(cfg, "squared", lambda vs: standard_norm(cfg, vs) ** 2)
        forward = {r.axiom: r for r in check_axioms(squared, trials=60, seed=11)}[Axiom.DEFINITENESS_FORWARD]
        batch = nnorm._Sampler(cfg, np.random.default_rng(11)).boundary_batch(60)
        failing = [
            vs
            for vs in batch.tuples
            if squared(vs) <= cfg.tol.zero * hadamard_scale(cfg, vs) and rank(vs, cfg.tol) == n
        ]
        assert len(failing) >= 2
        assert not forward.passed
        assert forward.witness.discrepancy == math.inf
        assert np.array_equal(np.array(forward.witness.vectors), np.array(failing[0]))


class TestPermutationInvariance:
    def test_all_orders_small_arity(self):
        rng = np.random.default_rng(8)
        for n, d in [(2, 3), (3, 3), (4, 6)]:
            cfg = cfg_of(n, d)
            vs = list(rng.uniform(-1, 1, (n, d)))
            base = standard_norm(cfg, vs)
            scale = hadamard_scale(cfg, vs)
            for perm in itertools.permutations(range(n)):
                value = standard_norm(cfg, [vs[i] for i in perm])
                assert abs(value - base) <= 1e-9 * max(base, value, scale)


class TestHomogeneityAndTriangle:
    def test_first_slot_scaling(self):
        cfg = cfg_of(3, 5)
        rng = np.random.default_rng(31)
        for _ in range(100):
            vs = list(rng.uniform(-1, 1, (3, 5)))
            alpha = float(rng.uniform(-10, 10))
            base = standard_norm(cfg, vs)
            value = standard_norm(cfg, [alpha * vs[0]] + vs[1:])
            assert abs(value - abs(alpha) * base) <= 1e-9 * max(abs(alpha) * base, 1.0)

    def test_first_slot_triangle(self):
        cfg = cfg_of(3, 5)
        rng = np.random.default_rng(32)
        for _ in range(100):
            vs = list(rng.uniform(-1, 1, (3, 5)))
            w = rng.uniform(-1, 1, 5)
            lhs = standard_norm(cfg, [vs[0] + w] + vs[1:])
            rhs = standard_norm(cfg, vs) + standard_norm(cfg, [w] + vs[1:])
            assert lhs <= rhs + 1e-9 * max(hadamard_scale(cfg, vs), 1.0)


class TestShiftInvariance:
    def test_zero_alphas_identity(self):
        cfg = cfg_of(3, 4)
        norm = standard_nnorm(cfg)
        vs = list(np.random.default_rng(1).uniform(-1, 1, (3, 4)))
        passed, gap = shift_invariance_check(norm, vs, [0.0, 0.0])
        assert passed
        assert gap == 0.0

    def test_random_shifts_pass(self):
        cfg = cfg_of(3, 5)
        norm = standard_nnorm(cfg)
        rng = np.random.default_rng(2)
        for _ in range(200):
            vs = list(rng.uniform(-1, 1, (3, 5)))
            alphas = rng.uniform(-5, 5, 2)
            passed, gap = shift_invariance_check(norm, vs, alphas)
            assert passed, gap

    def test_dependent_tuple_both_sides_zero(self):
        cfg = cfg_of(3, 4)
        norm = standard_nnorm(cfg)
        v1 = np.array([1.0, 2.0, 0.0, 1.0])
        v2 = np.array([0.0, 1.0, 1.0, 0.0])
        vs = [v1 + 2 * v2, v1, v2]
        passed, _ = shift_invariance_check(norm, vs, [3.0, -1.0])
        assert passed
        assert standard_norm(cfg, vs) <= 1e-7 * hadamard_scale(cfg, vs)

    def test_arity_mismatch(self):
        cfg = cfg_of(3, 4)
        norm = standard_nnorm(cfg)
        vs = list(np.zeros((3, 4)))
        with pytest.raises(DimensionMismatch):
            shift_invariance_check(norm, vs, [1.0])

    @pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
    @pytest.mark.parametrize(
        "alpha, message",
        [(math.nan, "shift coefficients"), (math.inf, "shift coefficients"), (1e308, "non-finite coordinates")],
    )
    def test_non_finite_coefficients_and_overflowing_shifts_are_named(self, alpha, message, injected):
        # a NaN or infinite coefficient is named as such, not as a non-finite
        # vector, and a shift that overflows (1e308 times the entry 4) raises
        # the non-finite error with no numpy warning
        cfg = cfg_of(3, 3)
        norm = NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs)) if injected else standard_nnorm(cfg)
        vs = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                shift_invariance_check(norm, vs, [alpha, 0.0])

    @pytest.mark.parametrize(
        "n, d, spd",
        [(n, d, False) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [(3, 4, True), (5, 6, True)],
    )
    def test_batched_and_public_gaps_equal_the_per_tuple_oracle(self, n, d, spd, monkeypatch):
        # at rel = 1e-300 every nonzero gap fails, so with `_worst` replaced
        # by `list` the check reports the gap of every such tuple, in order.
        # Rows at 1e+-150 send the standard values, and the scales of
        # n >= 3, through the split path of `_products`; values and scales
        # of n >= 3 leave the double range there
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = SpaceConfig(dim=d, arity=n, metric=metric, tol=Tolerance(rel=1e-300))
        norms = [
            standard_nnorm(cfg),
            NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs)),
            # Python floats, so that a value past the double range is inf
            NNorm(cfg, "weighted", lambda vs: standard_norm(cfg, vs) * (1.0 + abs(float(vs[0][0])))),
            _nan_on_large(cfg),
        ]
        splits = []
        split_product = linalg._split_product
        monkeypatch.setattr(linalg, "_split_product", lambda *groups: splits.append(1) or split_product(*groups))
        monkeypatch.setattr(nnorm, "_worst", list)
        drawn = nnorm._Sampler(cfg, np.random.default_rng(n * 10 + d)).equality_batch(14)
        for size in (1.0, 1e150, 1e-150):
            batch = nnorm._Batch([[v * size for v in vs] for vs in drawn.tuples])
            for norm in norms:
                rng = np.random.default_rng(3)
                alphas = [rng.uniform(-5.0, 5.0, n - 1) for _ in batch.tuples]
                expected = [per_tuple_shift_gap(norm, vs, a) for vs, a in zip(batch.tuples, alphas)]
                public = [shift_invariance_check(norm, vs, a)[1] for vs, a in zip(batch.tuples, alphas)]
                assert [float(g).hex() for g in public] == [g.hex() for g in expected], (size, norm.kind)
                witnesses = nnorm._check_shift(norm, batch.evaluate(norm), np.random.default_rng(3))
                # a witness carries the rows of its tuple of the batch's stack
                reported = [(np.array(w.vectors).tobytes(), w.detail["alphas"].tolist(), float(w.discrepancy).hex()) for w in witnesses]
                failing = [(vs.tobytes(), a.tolist(), g.hex()) for vs, a, g in zip(batch.tuples, alphas, expected) if not g <= 1e-300]
                assert reported == failing, (size, norm.kind)
        assert splits

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.floats(-3, 3, width=32), min_size=4, max_size=4), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5, width=32), min_size=2, max_size=2),
    )
    def test_shift_invariance_property(self, vs, alphas):
        cfg = cfg_of(3, 4)
        norm = standard_nnorm(cfg)
        passed, gap = shift_invariance_check(norm, vs, alphas)
        assert passed, gap
