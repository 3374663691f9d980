import json
import math
import pickle
import warnings

import numpy as np
import pytest

from nnormkit import quotient
from nnormkit.linalg import DimensionMismatch, SpaceConfig, Tolerance, determinant, gram_matrix, hadamard_scale, rank
from nnormkit.nnorm import Axiom, NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import (
    ClassCollection,
    Frame,
    IndexSet,
    ScaleOutOfRange,
    class1_norm,
    class_collection,
    classm_norm,
    coset_invariance_check,
    in_kept_span,
    is_quotient_zero,
    quotient_norm_axioms,
    random_frame,
    standard_frame,
)
from nnormkit.quotient import _adversarial_member, _escape_direction


def binom(n, m):
    return math.comb(n, m)


@pytest.fixture
def ortho5():
    cfg = SpaceConfig(dim=5, arity=5)
    return standard_frame(cfg), standard_nnorm(cfg)


@pytest.fixture
def frame34():
    cfg = SpaceConfig(dim=4, arity=3)
    return standard_frame(cfg), standard_nnorm(cfg)


class TestIndexSet:
    def test_valid(self):
        s = IndexSet([1, 3, 4])
        assert s.m == 3
        assert list(s) == [1, 3, 4]
        assert 3 in s
        assert s.complement(5) == (2, 5)

    @pytest.mark.parametrize("bad", [[], [0, 1], [2, 2], [3, 1]])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            IndexSet(bad)

    def test_validate_for_arity(self):
        with pytest.raises(ValueError):
            IndexSet([1, 6]).validate_for(5)

    @pytest.mark.parametrize("bad", [1.7, 2.5, math.nan, math.inf, np.float64(1.2), np.float32(3.5)])
    def test_a_non_integral_index_is_named_not_truncated(self, bad):
        with pytest.raises(ValueError, match=f"index {bad} is not an integer"):
            IndexSet([bad])

    @pytest.mark.parametrize(
        "bad", ["12", ["1", "2"], [b"1"], [True], [1, np.bool_(True)]], ids=["str", "strs", "bytes", "bool", "numpy-bool"]
    )
    def test_strings_bytes_and_bools_are_no_indices(self, bad):
        # IndexSet("12") was {1, 2}, read one character at a time
        with pytest.raises(ValueError, match="is not an integer"):
            IndexSet(bad)
        with pytest.raises(ValueError, match="is not an integer"):
            IndexSet.from_json(bad)

    def test_whole_floats_and_numpy_integers_are_indices(self):
        assert IndexSet([1.0, np.float64(3.0), np.int64(4)]).indices == (1, 3, 4)
        assert all(type(i) is int for i in IndexSet([1.0, np.int64(4)]).indices)

    def test_json_round_trip(self):
        s = IndexSet([2, 5])
        assert IndexSet.from_json(json.loads(json.dumps(s.to_json()))) == s


class TestClassCollection:
    def test_n3_m2(self):
        got = [s.indices for s in class_collection(3, 2)]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_class_n_is_single(self):
        coll = class_collection(4, 4)
        assert len(coll) == 1
        assert coll.members[0].indices == (1, 2, 3, 4)

    def test_c52_has_ten(self):
        assert len(class_collection(5, 2)) == 10

    def test_counts_match_binomials_exhaustively(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                coll = class_collection(n, m)
                assert len(coll) == binom(n, m)
                assert len(set(coll.members)) == len(coll)
                assert list(coll.members) == sorted(coll.members)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            class_collection(3, 0)
        with pytest.raises(ValueError):
            class_collection(3, 4)

    def test_sizes_are_whole_numbers(self):
        # a cached (3, 2) would answer for 3.0 before any check ran
        class_collection.cache_clear()
        assert class_collection(3.0, 2) == class_collection(3, 2)
        assert all(type(i) is int for s in class_collection(3.0, 2) for i in s)
        with pytest.raises(ValueError, match="n 3.5 is not an integer"):
            class_collection(3.5, 2)
        with pytest.raises(ValueError, match="m 1.5 is not an integer"):
            class_collection(3, 1.5)

    def test_json_round_trip(self):
        coll = class_collection(4, 2)
        again = ClassCollection.from_json(json.loads(json.dumps(coll.to_json())))
        assert again == coll

    def test_non_integral_sizes_in_json_are_rejected(self):
        doc = class_collection(3, 1).to_json()
        with pytest.raises(ValueError, match="n 3.5 is not an integer"):
            ClassCollection.from_json({**doc, "n": 3.5})
        with pytest.raises(ValueError, match="m 1.5 is not an integer"):
            ClassCollection.from_json({**doc, "m": 1.5})
        assert ClassCollection.from_json({**doc, "n": 3.0, "m": 1.0}) == class_collection(3, 1)

    def test_a_json_non_object_is_named(self):
        with pytest.raises(ValueError, match=r"class collection must be a mapping, got \[1\]"):
            ClassCollection.from_json([1])


class TestFrame:
    def test_rejects_dependent_vectors(self):
        cfg = SpaceConfig(dim=3, arity=2)
        with pytest.raises(ValueError):
            Frame(space=cfg, vectors=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def test_rejects_wrong_shape(self):
        cfg = SpaceConfig(dim=3, arity=2)
        with pytest.raises(DimensionMismatch):
            Frame(space=cfg, vectors=np.eye(3))

    def test_without_preserves_order(self):
        cfg = SpaceConfig(dim=4, arity=4)
        frame = standard_frame(cfg)
        rest = frame.without(2)
        assert np.array_equal(np.array(rest), np.eye(4)[[0, 2, 3]])

    def test_random_frame_is_independent_and_conditioned(self):
        cfg = SpaceConfig(dim=6, arity=4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            frame = random_frame(cfg, rng, min_volume=0.1)
            assert frame.vectors.shape == (4, 6)

    def test_json_round_trip(self):
        cfg = SpaceConfig(dim=3, arity=2, metric=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        frame = Frame(space=cfg, vectors=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        again = Frame.from_json(json.loads(json.dumps(frame.to_json())))
        assert np.array_equal(again.vectors, frame.vectors)
        assert np.array_equal(again.space.metric, frame.space.metric)

    def test_json_round_trip_keeps_the_tolerances(self):
        # at tol.zero = 1e-5, u = (1, 1e-6, 0) lies in the span of y_1; a
        # frame rebuilt at the default 1e-9 called it off the span
        cfg = SpaceConfig(dim=3, arity=2, tol=Tolerance(zero=1e-5, rel=1e-8, sym=1e-11))
        frame = standard_frame(cfg)
        doc = json.loads(json.dumps(frame.to_json()))
        assert doc["tolerances"] == {"zero": 1e-5, "rel": 1e-8, "sym": 1e-11}
        again = Frame.from_json(doc)
        assert again.space.tol == cfg.tol
        s, u = IndexSet([2]), [1.0, 1e-6, 0.0]
        for f in (frame, again):
            assert in_kept_span(f, u, s)
            assert is_quotient_zero(f, standard_nnorm(f.space), u, s)

    def test_json_without_tolerances_takes_the_defaults(self):
        doc = {"dim": 3, "arity": 2, "vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        assert Frame.from_json(doc).space.tol == Tolerance()
        assert Frame.from_json({**doc, "tolerances": {"rel": 1e-6}}).space.tol == Tolerance(rel=1e-6)
        with pytest.raises(ValueError, match="tolerances must be a mapping"):
            Frame.from_json({**doc, "tolerances": [1e-5]})

    def test_non_integral_sizes_in_json_are_rejected(self):
        # truncated, dim 3.7 and arity 2.9 built a (3, 2) space
        doc = {"dim": 3, "arity": 2, "vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        with pytest.raises(ValueError, match="dim 3.7 is not an integer"):
            Frame.from_json({**doc, "dim": 3.7})
        with pytest.raises(ValueError, match="arity 2.9 is not an integer"):
            Frame.from_json({**doc, "arity": 2.9})
        space = Frame.from_json({**doc, "dim": 3.0, "arity": 2.0}).space
        assert (space.dim, space.arity) == (3, 2)

    def test_whole_float_sizes_build_the_int_frame(self):
        by_float = standard_frame(SpaceConfig(dim=3.0, arity=2))
        assert by_float.vectors.tobytes() == standard_frame(SpaceConfig(dim=3, arity=2)).vectors.tobytes()

    def test_a_json_non_object_is_named(self):
        with pytest.raises(ValueError, match=r"frame must be a mapping, got \[3, 2\]"):
            Frame.from_json([3, 2])


class TestClass1Norm:
    def test_unit_on_own_direction_orthonormal(self, ortho5):
        frame, norm = ortho5
        for j in range(1, 6):
            assert class1_norm(frame, norm, frame.row(j), j) == pytest.approx(1.0, rel=1e-12)

    def test_zero_on_kept_span(self, ortho5):
        frame, norm = ortho5
        u = frame.row(2) + 3.0 * frame.row(3)  # stays in span(Y minus y_1)
        assert is_quotient_zero(frame, norm, u, IndexSet([1]))
        assert class1_norm(frame, norm, u, 1) <= 1e-7 * np.linalg.norm(u)

    def test_zero_vector(self, ortho5):
        frame, norm = ortho5
        assert class1_norm(frame, norm, np.zeros(5), 4) == 0.0

    def test_j_out_of_range(self, ortho5):
        frame, norm = ortho5
        with pytest.raises(ValueError):
            class1_norm(frame, norm, np.zeros(5), 6)


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_frame_indices_are_whole_numbers(injected):
    # 2.0 means 2 for both norms; 1.5 is named, not truncated, accepted by
    # the closed form or refused by an evaluator as a list index
    cfg = SpaceConfig(dim=4, arity=3)
    rng = np.random.default_rng(5)
    frame = random_frame(cfg, rng)
    norm = NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs)) if injected else standard_nnorm(cfg)
    u = rng.uniform(-1.0, 1.0, 4)
    assert class1_norm(frame, norm, u, 2.0) == class1_norm(frame, norm, u, np.float64(2.0)) == class1_norm(frame, norm, u, 2)
    by_float = quotient.quotient_profile(frame, norm, u, [3.0, 1.0])
    by_int = quotient.quotient_profile(frame, norm, u, [1, 3])
    assert by_float.values.tobytes() == by_int.values.tobytes()
    assert by_float.scales.tobytes() == by_int.scales.tobytes()
    assert frame.row(2.0).tobytes() == frame.row(2).tobytes()
    assert np.array_equal(frame.without(np.float64(2.0)), frame.without(2))
    calls = [
        lambda: class1_norm(frame, norm, u, 1.5),
        lambda: quotient.quotient_profile(frame, norm, u, [1, 1.5]),
        lambda: frame.row(1.5),
        lambda: frame.without(1.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="frame index 1.5 is not an integer"):
            call()


class TestClassmNorm:
    def test_full_removal_of_first_basis_vector(self, ortho5):
        frame, norm = ortho5
        s = IndexSet(range(1, 6))
        # only the j=1 term is nonzero: every other tuple contains y_1 twice
        assert classm_norm(frame, norm, frame.row(1), s) == pytest.approx(1.0, rel=1e-12)

    def test_single_index_equals_class1(self, frame34):
        frame, norm = frame34
        u = np.array([0.3, -1.2, 0.7, 2.0])
        assert classm_norm(frame, norm, u, IndexSet([2])) == class1_norm(frame, norm, u, 2)

    def test_zero_on_kept_span(self, frame34):
        frame, norm = frame34
        s = IndexSet([1, 2])
        u = -2.5 * frame.row(3)
        assert classm_norm(frame, norm, u, s) <= 1e-12

    def test_decomposition_identity_exact(self):
        cfg = SpaceConfig(dim=5, arity=4)
        rng = np.random.default_rng(21)
        frame = random_frame(cfg, rng)
        norm = standard_nnorm(cfg)
        for _ in range(50):
            u = rng.uniform(-2, 2, 5)
            for coll_m in range(1, 5):
                for s in class_collection(4, coll_m):
                    total = classm_norm(frame, norm, u, s)
                    parts = sum(class1_norm(frame, norm, u, j) for j in s)
                    assert total - parts == 0.0

    def test_class1_sum_equals_class_n(self, frame34):
        frame, norm = frame34
        rng = np.random.default_rng(22)
        full = IndexSet(range(1, 4))
        for _ in range(25):
            u = rng.uniform(-1, 1, 4)
            total = sum(class1_norm(frame, norm, u, j) for j in range(1, 4))
            assert classm_norm(frame, norm, u, full) - total == 0.0

    def test_homogeneity(self, frame34):
        frame, norm = frame34
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = rng.uniform(-1, 1, 4)
            alpha = float(rng.uniform(-10, 10))
            s = IndexSet([1, 3])
            base = classm_norm(frame, norm, u, s)
            assert classm_norm(frame, norm, alpha * u, s) == pytest.approx(abs(alpha) * base, rel=1e-9, abs=1e-12)

    def test_triangle(self, frame34):
        frame, norm = frame34
        rng = np.random.default_rng(24)
        s = IndexSet([2, 3])
        for _ in range(50):
            u, v = rng.uniform(-1, 1, (2, 4))
            lhs = classm_norm(frame, norm, u + v, s)
            rhs = classm_norm(frame, norm, u, s) + classm_norm(frame, norm, v, s)
            assert lhs <= rhs + 1e-9 * max(rhs, 1.0)


class TestCosetInvariance:
    def test_zero_coefficients_zero_discrepancy(self, frame34):
        frame, norm = frame34
        s = IndexSet([1, 2])
        coeffs = {i: 0.0 for i in s.complement(3)}
        passed, gap = coset_invariance_check(frame, norm, np.array([1.0, 2.0, 3.0, 4.0]), s, coeffs)
        assert passed
        assert gap == 0.0

    def test_random_shifts_pass(self):
        cfg = SpaceConfig(dim=6, arity=4)
        rng = np.random.default_rng(31)
        frame = random_frame(cfg, rng)
        norm = standard_nnorm(cfg)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            s = IndexSet(sorted(rng.choice(range(1, 5), size=m, replace=False).tolist()))
            u = rng.uniform(-1, 1, 6)
            coeffs = {i: float(rng.uniform(-5, 5)) for i in s.complement(4)}
            passed, gap = coset_invariance_check(frame, norm, u, s, coeffs)
            assert passed, (s, gap)

    def test_shift_along_removed_vector_changes_value(self, ortho5):
        # the check is not vacuous: y_1 is not a coset direction for s={1}
        frame, norm = ortho5
        s = IndexSet([1])
        u = np.zeros(5)
        base = classm_norm(frame, norm, u, s)
        moved = classm_norm(frame, norm, u + frame.row(1), s)
        assert base == 0.0
        assert moved == pytest.approx(1.0, rel=1e-12)

    def test_wrong_coefficient_keys_rejected(self, frame34):
        frame, norm = frame34
        s = IndexSet([1])
        with pytest.raises(ValueError):
            coset_invariance_check(frame, norm, np.zeros(4), s, {1: 1.0, 2: 0.0})

    @pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
    @pytest.mark.parametrize(
        "c, message",
        [(math.nan, "coset coefficients"), (math.inf, "coset coefficients"), (1e308, "non-finite coordinates")],
    )
    def test_non_finite_coefficients_and_overflowing_shifts_are_named(self, c, message, injected):
        # a NaN or infinite coefficient is named as such, not as a non-finite
        # vector, and a shift that overflows (1e308 times the entry 4) raises
        # the non-finite error with no numpy warning
        cfg = SpaceConfig(3, 3)
        frame = Frame(cfg, np.diag([4.0, 1.0, 1.0]))
        norm = _injected(cfg) if injected else standard_nnorm(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                coset_invariance_check(frame, norm, np.array([1.0, 2.0, 3.0]), IndexSet([2]), {1: c, 3: 0.0})


class TestDefiniteness:
    def test_quotient_zero_iff_kept_span_membership(self):
        cfg = SpaceConfig(dim=6, arity=4)
        rng = np.random.default_rng(41)
        frame = random_frame(cfg, rng, min_volume=0.1)
        norm = standard_nnorm(cfg)
        s = IndexSet([2, 4])
        kept = frame.kept_vectors(s)
        for _ in range(100):
            inside = np.array(kept).T @ rng.uniform(-2, 2, len(kept))
            assert in_kept_span(frame, inside, s)
            assert is_quotient_zero(frame, norm, inside, s)
            outside = inside + rng.uniform(0.5, 1.5) * frame.row(2)
            assert not in_kept_span(frame, outside, s)
            assert not is_quotient_zero(frame, norm, outside, s)

    def test_removed_direction_has_positive_norm(self, ortho5):
        frame, norm = ortho5
        s = IndexSet([2, 3])
        assert classm_norm(frame, norm, frame.row(2), s) > 0.5

    def test_kept_sum_is_zero_coset(self, ortho5):
        frame, norm = ortho5
        s = IndexSet([1, 5])
        u = frame.row(2) + frame.row(3) + frame.row(4)
        assert is_quotient_zero(frame, norm, u, s)


class TestQuotientNormAxioms:
    def test_orthonormal_frame_all_pass(self, ortho5):
        frame, norm = ortho5
        for s in [IndexSet([1]), IndexSet([2, 4]), IndexSet(range(1, 6))]:
            reports = quotient_norm_axioms(frame, norm, s, trials=60, seed=7)
            assert all(r.passed for r in reports), [
                (r.axiom, r.witness.discrepancy) for r in reports if not r.passed
            ]

    def test_random_frame_all_pass(self):
        cfg = SpaceConfig(dim=5, arity=4)
        rng = np.random.default_rng(43)
        frame = random_frame(cfg, rng, min_volume=0.1)
        norm = standard_nnorm(cfg)
        reports = quotient_norm_axioms(frame, norm, IndexSet([1, 3]), trials=60, seed=11)
        assert all(r.passed for r in reports)

    def test_covers_all_four_axioms(self, frame34):
        frame, norm = frame34
        reports = quotient_norm_axioms(frame, norm, IndexSet([2]), trials=5, seed=1)
        assert {r.axiom for r in reports} == {
            Axiom.ABSOLUTE_HOMOGENEITY,
            Axiom.TRIANGLE_INEQUALITY,
            Axiom.DEFINITENESS_FORWARD,
            Axiom.DEFINITENESS_BACKWARD,
        }

    def test_trials_validated(self, frame34):
        frame, norm = frame34
        with pytest.raises(ValueError):
            quotient_norm_axioms(frame, norm, IndexSet([1]), trials=0, seed=1)
        # 2.0 means 2; 2.5 is named, not truncated
        with pytest.raises(ValueError, match="trials 2.5 is not an integer"):
            quotient_norm_axioms(frame, norm, IndexSet([1]), trials=2.5, seed=1)
        by_float = quotient_norm_axioms(frame, norm, IndexSet([1]), trials=2.0, seed=1)
        assert pickle.dumps(by_float) == pickle.dumps(quotient_norm_axioms(frame, norm, IndexSet([1]), trials=2, seed=1))



def _injected(cfg):
    return NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs))


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


class TestOneZeroRule:
    """A coset is zero when u lies within tol.zero |u| of the kept span, the
    rule the rank oracle `in_kept_span` applies; the probes are the ones
    `quotient_norm_axioms` makes."""

    @pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (5, 5), (3, 5), (4, 6)])
    def test_zero_decisions_agree_with_the_rank_oracle(self, n, d, metric, injected):
        rng = np.random.default_rng(100 * n + d)
        cfg = SpaceConfig(dim=d, arity=n, metric=_spd(rng, d) if metric else None)
        norm = _injected(cfg) if injected else standard_nnorm(cfg)
        for _ in range(3):
            frame = random_frame(cfg, rng)
            for m in range(1, n + 1):
                for s in class_collection(n, m):
                    for delta in (0.0, 1e-6, 1e-3):
                        u = _adversarial_member(frame, s, rng) + delta * _escape_direction(frame, s, rng)
                        assert is_quotient_zero(frame, norm, u, s) == in_kept_span(frame, u, s), (s, delta, u)

    @pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
    def test_near_member_of_an_ill_conditioned_square_frame_is_not_zero(self, injected):
        # u lies 1e-6 along y_1 from the kept span; a rule at 1e-7 of the
        # Hadamard scale leaves this frame's factor V_1 in the test and
        # called the coset zero, while the rank oracle calls u independent
        cfg = SpaceConfig(3, 3)
        rng = np.random.default_rng(38)
        frame = random_frame(cfg, rng)
        s = IndexSet([1])
        u = _adversarial_member(frame, s, rng) + 1e-6 * _escape_direction(frame, s, rng)
        norm = _injected(cfg) if injected else standard_nnorm(cfg)
        assert not in_kept_span(frame, u, s)
        assert not is_quotient_zero(frame, norm, u, s)
        reports = quotient_norm_axioms(frame, norm, s, trials=6, seed=38)
        assert all(r.passed for r in reports), [(r.axiom, r.witness) for r in reports if not r.passed]

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_escape_direction_of_a_tiny_or_huge_frame_row_is_unit(self, size):
        # a length taken through its square is 0 at 1e-200 (a division by
        # zero) and inf at 1e200 (an escape direction of 0, which turns the
        # forward probes into exact members)
        cfg = SpaceConfig(3, 3)
        frame = Frame(cfg, np.diag([size, 1.0, 1.0]))
        s = IndexSet([1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _escape_direction(frame, s, np.random.default_rng(1)).tolist() == [1.0, 0.0, 0.0]
            reports = quotient_norm_axioms(frame, standard_nnorm(cfg), s, 8, 1)
        assert all(r.passed for r in reports), [(r.axiom, r.witness) for r in reports if not r.passed]
        # with d > n the escape direction is the frame's orthogonal
        # complement; taken through the Gram matrix of the rows it was a
        # singular solve at 1e-200 and overflowed at 1e200. At 1e200 a member
        # of a kept span holding y_1 has a scale beyond the double range
        wide = SpaceConfig(5, 3)
        frame = Frame(wide, np.eye(5)[:3] * np.array([[size], [1.0], [1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (1, 2, 3):
                for s in class_collection(3, m):
                    if size > 1.0 and 1 not in s:
                        with pytest.raises(ScaleOutOfRange):
                            quotient_norm_axioms(frame, standard_nnorm(wide), s, 8, 1)
                        continue
                    reports = quotient_norm_axioms(frame, standard_nnorm(wide), s, 8, 1)
                    assert all(r.passed for r in reports), (s, [(r.axiom, r.witness) for r in reports if not r.passed])


def _lu_gram(cfg):
    # the square root of an LU Gram determinant: noise near sqrt(eps) of the
    # scale on (near-)dependent tuples
    return NNorm(cfg, "lu", lambda vs: math.sqrt(max(determinant(gram_matrix(cfg, vs)), 0.0)))


#: broken evaluators, each with the checks that must catch it
_MUTANTS = {
    "squared": (
        lambda cfg, vs: standard_norm(cfg, vs) ** 2,
        {Axiom.ABSOLUTE_HOMOGENEITY, Axiom.TRIANGLE_INEQUALITY},
    ),
    "sign-skewed": (
        lambda cfg, vs: standard_norm(cfg, vs) * (1.0 + 1e-6 * (vs[0][0] > 0.0)),
        {Axiom.ABSOLUTE_HOMOGENEITY, "coset_invariance"},
    ),
    "square-root": (
        lambda cfg, vs: math.sqrt(standard_norm(cfg, vs)),
        {Axiom.ABSOLUTE_HOMOGENEITY},
    ),
    "coordinate-leak": (
        lambda cfg, vs: standard_norm(cfg, vs) + 1e-6 * abs(vs[0][0]) * hadamard_scale(cfg, vs[1:]),
        {"coset_invariance"},
    ),
}


class TestOneComparisonRule:
    """The quotient checks compare each class-1 term over s as `check_axioms`
    compares values: the relative gap or the triangle excess of `nnorm`, at
    the term's own Hadamard scale, in the zero band of the frame's space."""

    @pytest.mark.parametrize("zero", [1e-9, 1e-7])
    def test_lu_gram_evaluator_passes_homogeneity_and_triangle(self, zero):
        # the frame and the axiom sampler start from the same seed, so the
        # first sample is parallel to y_1 and the class-1 terms holding y_1
        # are rounding noise, which a comparison of class-m sums with no zero
        # band reports as a homogeneity failure at every tol.zero
        for n, d in [(2, 2), (3, 3)]:
            cfg = SpaceConfig(dim=d, arity=n, tol=Tolerance(zero=zero))
            norm = _lu_gram(cfg)
            for seed in range(1, 5):
                frame = random_frame(cfg, np.random.default_rng(seed))
                for m in range(1, n + 1):
                    for s in class_collection(n, m):
                        reports = quotient_norm_axioms(frame, norm, s, 6, seed)
                        failed = [
                            (r.axiom, r.witness.discrepancy)
                            for r in reports
                            if r.axiom in (Axiom.ABSOLUTE_HOMOGENEITY, Axiom.TRIANGLE_INEQUALITY) and not r.passed
                        ]
                        assert not failed, (n, d, seed, s, failed)

    @pytest.mark.parametrize("mutant", sorted(_MUTANTS))
    def test_broken_evaluators_are_caught(self, mutant):
        evaluate, expected = _MUTANTS[mutant]
        cfg = SpaceConfig(dim=5, arity=3)
        norm = NNorm(cfg, mutant, lambda vs: evaluate(cfg, vs))
        rng = np.random.default_rng(7)
        frame = random_frame(cfg, rng)
        for s in [IndexSet([1]), IndexSet([2]), IndexSet([1, 3]), IndexSet([2, 3])]:
            caught = {
                r.axiom
                for r in quotient_norm_axioms(frame, norm, s, 20, 7)
                if r.axiom in (Axiom.ABSOLUTE_HOMOGENEITY, Axiom.TRIANGLE_INEQUALITY) and not r.passed
            }
            for _ in range(20):
                u = rng.uniform(-1.0, 1.0, cfg.dim)
                coeffs = {i: float(rng.uniform(-5.0, 5.0)) for i in s.complement(frame.n)}
                if not coset_invariance_check(frame, norm, u, s, coeffs)[0]:
                    caught.add("coset_invariance")
            assert caught == expected, (s, caught)


def _nan_on_large(cfg):
    # NaN whenever the first vector has an entry above 1.5
    return NNorm(cfg, "nan-on-large", lambda vs: math.nan if max(vs[0]) > 1.5 else standard_norm(cfg, vs))


class TestWitnessRule:
    """The quotient checks select witnesses with `nnorm._worst`, and each
    class-1 term's gap decision fails unless gap <= tol.rel."""

    @pytest.mark.parametrize("s", [[1], [2], [1, 3], [1, 2, 3]])
    def test_a_nan_on_large_evaluator_fails_homogeneity_and_triangle(self, s):
        cfg = SpaceConfig(dim=5, arity=3)
        frame = random_frame(cfg, np.random.default_rng(7))
        reports = {r.axiom: r for r in quotient_norm_axioms(frame, _nan_on_large(cfg), IndexSet(s), 20, 7)}
        for axiom in (Axiom.ABSOLUTE_HOMOGENEITY, Axiom.TRIANGLE_INEQUALITY):
            assert not reports[axiom].passed, axiom
            assert math.isnan(reports[axiom].witness.discrepancy)

    def test_a_nan_on_dependent_evaluator_fails_definiteness_backward(self):
        cfg = SpaceConfig(dim=5, arity=3)
        norm = NNorm(cfg, "nan-on-dependent", lambda vs: math.nan if rank(vs, cfg.tol) < 3 else standard_norm(cfg, vs))
        frame = random_frame(cfg, np.random.default_rng(7))
        for s in ([1], [1, 3]):
            backward = quotient_norm_axioms(frame, norm, IndexSet(s), 10, 7)[3]
            assert backward.axiom is Axiom.DEFINITENESS_BACKWARD
            assert not backward.passed
            assert math.isnan(backward.witness.discrepancy)

    @pytest.mark.parametrize("s", [[1], [2, 3]])
    def test_forward_definiteness_reports_the_first_failing_sample(self, s, monkeypatch):
        # the squared norm of a member perturbed at 1e-6 falls under the zero
        # threshold while the rank oracle calls it off the kept span; the
        # forward check consults the oracle only on a zero decision
        cfg = SpaceConfig(dim=5, arity=3)
        norm = NNorm(cfg, "squared", lambda vs: standard_norm(cfg, vs) ** 2)
        frame = random_frame(cfg, np.random.default_rng(3))
        off_span = []

        def recording(frame, u, s):
            inside = in_kept_span(frame, u, s)
            if not inside:
                off_span.append(u)
            return inside

        monkeypatch.setattr(quotient, "in_kept_span", recording)
        forward = quotient_norm_axioms(frame, norm, IndexSet(s), 20, 3)[2]
        assert forward.axiom is Axiom.DEFINITENESS_FORWARD
        assert len(off_span) >= 2
        assert not forward.passed
        assert forward.witness.discrepancy == math.inf
        assert forward.witness.vectors[0] is off_span[0]

    def test_coset_invariance_fails_a_nan_term_wherever_it_sits(self):
        # NaN on the tuples holding y_1 right after u: the term j = 2 of
        # s = {1, 2}, the second one, which a plain max over terms dropped
        cfg = SpaceConfig(dim=3, arity=3)
        frame = standard_frame(cfg)
        norm = NNorm(cfg, "nan-on-y1", lambda vs: math.nan if np.array_equal(vs[1], frame.row(1)) else standard_norm(cfg, vs))
        u = np.array([0.3, -0.4, 0.5])
        assert math.isnan(class1_norm(frame, norm, u, 2)) and not math.isnan(class1_norm(frame, norm, u, 1))
        passed, gap = coset_invariance_check(frame, norm, u, IndexSet([1, 2]), {3: 0.5})
        assert not passed
        assert math.isnan(gap)


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_a_norm_of_another_space_is_refused(injected):
    frame = standard_frame(SpaceConfig(dim=4, arity=3))
    for cfg in (SpaceConfig(dim=5, arity=3), SpaceConfig(dim=4, arity=2)):
        norm = NNorm(cfg, "injected", lambda vs, cfg=cfg: standard_norm(cfg, vs)) if injected else standard_nnorm(cfg)
        with pytest.raises(DimensionMismatch) as err:
            quotient.quotient_profile(frame, norm, np.ones(4))
        assert str(err.value) == f"norm/frame space: expected (3, 4), got {(cfg.arity, cfg.dim)}"
