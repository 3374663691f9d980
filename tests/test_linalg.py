import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nnormkit.linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    SpaceConfig,
    Tolerance,
    as_vector,
    determinant,
    gram_matrix,
    hadamard_scale,
    inner,
    rank,
)
from nnormkit.nnorm import NNorm, standard_nnorm

from oracles import cofactor_det, fresh_evaluate, hadamard_bound


def square_matrices(max_size=5, lo=-10.0, hi=10.0):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(lo, hi, allow_nan=False, width=32), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.zero == 1e-9
        assert DEFAULT_TOL.rel == 1e-9
        assert DEFAULT_TOL.sym == 1e-12

    @pytest.mark.parametrize("bad", [dict(zero=0.0), dict(rel=-1e-9), dict(sym=float("nan"))])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestSpaceConfig:
    def test_identity_default(self):
        cfg = SpaceConfig(dim=3, arity=2)
        assert cfg.metric is None
        assert np.array_equal(cfg.metric_matrix(), np.eye(3))

    def test_arity_must_fit_dim(self):
        with pytest.raises(ValueError):
            SpaceConfig(dim=2, arity=3)

    def test_sizes_are_whole_numbers(self):
        # dim 3.5 was kept, and a later length check expected 3.5 coordinates
        cfg = SpaceConfig(dim=3.0, arity=np.float64(2.0))
        assert cfg == SpaceConfig(dim=3, arity=2)
        assert type(cfg.dim) is int and type(cfg.arity) is int
        vs = [[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]]
        assert standard_nnorm(SpaceConfig(dim=3, arity=2.0))(vs) == standard_nnorm(SpaceConfig(dim=3, arity=2))(vs)
        with pytest.raises(ValueError, match="dim 3.5 is not an integer"):
            SpaceConfig(dim=3.5, arity=2)
        with pytest.raises(ValueError, match="arity 1.5 is not an integer"):
            SpaceConfig(dim=3, arity=1.5)

    @pytest.mark.parametrize("bad", ["3", "3.0", b"3", True, np.bool_(True)], ids=["str", "str-float", "bytes", "bool", "numpy-bool"])
    def test_strings_bytes_and_bools_are_no_sizes(self, bad):
        # int() read "3" as 3 and True as 1, and "3.0" raised int()'s own message
        with pytest.raises(ValueError) as err:
            SpaceConfig(dim=bad, arity=1)
        assert str(err.value) == f"dim {bad!r} is not an integer"

    def test_rejects_asymmetric_metric(self):
        with pytest.raises(ValueError):
            SpaceConfig(dim=2, arity=2, metric=[[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite_metric(self):
        with pytest.raises(ValueError):
            SpaceConfig(dim=2, arity=2, metric=[[1.0, 0.0], [0.0, -1.0]])

    def test_accepts_spd_metric(self):
        cfg = SpaceConfig(dim=2, arity=2, metric=[[2.0, 1.0], [1.0, 2.0]])
        assert cfg.metric is not None


class TestInner:
    def test_orthogonal_coordinates(self):
        cfg = SpaceConfig(dim=2, arity=2)
        assert inner(cfg, [1, 0], [0, 1]) == 0.0

    def test_squared_euclidean_length(self):
        cfg = SpaceConfig(dim=2, arity=2)
        assert inner(cfg, [3, 4], [3, 4]) == 25.0

    def test_diagonal_metric(self):
        # direct expansion a' M a = 2*1*1 + 1*0*0 = 2
        cfg = SpaceConfig(dim=2, arity=2, metric=[[2.0, 0.0], [0.0, 1.0]])
        assert inner(cfg, [1, 0], [1, 0]) == 2.0

    def test_dimension_mismatch_names_lengths(self):
        cfg = SpaceConfig(dim=3, arity=2)
        with pytest.raises(DimensionMismatch) as exc:
            inner(cfg, [1, 0], [0, 1, 0])
        assert exc.value.expected == 3
        assert exc.value.actual == 2

    def test_exact_symmetry_under_spd_metric(self):
        cfg = SpaceConfig(dim=3, arity=2, metric=[[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.1]])
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert inner(cfg, a, b) == inner(cfg, b, a)

    def test_rejects_nonfinite(self):
        cfg = SpaceConfig(dim=2, arity=2)
        with pytest.raises(ValueError):
            inner(cfg, [1.0, float("nan")], [1.0, 0.0])


class TestGramMatrix:
    def test_standard_basis_gives_identity(self):
        cfg = SpaceConfig(dim=2, arity=2)
        g = gram_matrix(cfg, [[1, 0], [0, 1]])
        assert np.array_equal(g, np.eye(2))

    def test_repeated_vector_gives_equal_rows(self):
        cfg = SpaceConfig(dim=3, arity=2)
        v = [1.0, 2.0, -1.0]
        g = gram_matrix(cfg, [v, v])
        assert np.array_equal(g[0], g[1])

    def test_hand_expansion(self):
        cfg = SpaceConfig(dim=2, arity=2)
        g = gram_matrix(cfg, [[1, 1], [1, -1]])
        assert np.array_equal(g, [[2.0, 0.0], [0.0, 2.0]])

    def test_empty_rejected(self):
        cfg = SpaceConfig(dim=2, arity=2)
        with pytest.raises(ValueError):
            gram_matrix(cfg, [])

    def test_symmetric_within_tolerance(self):
        cfg = SpaceConfig(dim=4, arity=3, metric=np.diag([1.0, 2.0, 0.5, 1.5]))
        rng = np.random.default_rng(3)
        for _ in range(30):
            vs = rng.uniform(-5, 5, (3, 4))
            g = gram_matrix(cfg, vs)
            assert np.max(np.abs(g - g.T)) <= DEFAULT_TOL.sym


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == 1.0

    def test_repeated_row_is_zero(self):
        assert determinant([[1, 2], [1, 2]]) == 0.0

    def test_two_by_two(self):
        assert determinant([[1, 2], [3, 4]]) == pytest.approx(-2.0, rel=1e-12)

    def test_matches_cofactor_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = rng.uniform(-1, 1, (n, n))
            ours = determinant(m)
            ref = cofactor_det(m.tolist())
            assert abs(ours - ref) <= 1e-10 * max(abs(ref), abs(ours), hadamard_bound(m.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_matches_cofactor_oracle_hypothesis(self, m):
        ours = determinant(m)
        ref = cofactor_det(m)
        assert abs(ours - ref) <= 1e-10 * max(abs(ref), abs(ours), hadamard_bound(m), 1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            determinant([[1, 2, 3], [4, 5, 6]])


class TestRank:
    def test_standard_basis_subset(self):
        vs = [np.eye(5)[i] for i in range(3)]
        assert rank(vs) == 3

    def test_scalar_multiple(self):
        v = np.array([1.0, -2.0, 0.5])
        assert rank([v, 2 * v]) == 1

    def test_hand_row_reduction(self):
        assert rank([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2

    def test_zero_set(self):
        assert rank([[0.0, 0.0], [0.0, 0.0]]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            rank([[1, 0], [1, 0, 0]])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=4, max_size=4),
            min_size=1,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
        st.floats(0.5, 100.0),
    )
    # with one pivot threshold for the whole set, scaling the first row by 7
    # pushed the second row's only entry below it
    @example([[0.0, 0.0, 9.0, 0.0], [0.0, 0.0, 0.0, 5.960464477539063e-08]], random.Random(0), 7.0)
    def test_permutation_and_scaling_invariance(self, vs, rnd, factor):
        base = rank(vs)
        shuffled = list(vs)
        rnd.shuffle(shuffled)
        assert rank(shuffled) == base
        scaled = [list(np.array(vs[0]) * factor)] + vs[1:]
        assert rank(scaled) == base

    def test_near_dependence_thresholds(self):
        # perturbations well above tol.zero count as independent, below as dependent
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        probe = e1 + e2
        assert rank([e1, e2, probe + 1e-6 * np.array([0, 0, 1.0])]) == 3
        assert rank([e1, e2, probe + 1e-12 * np.array([0, 0, 1.0])]) == 2


class TestGramDeterminantProperties:
    def test_gram_determinants_nonnegative_up_to_rounding(self):
        rng = np.random.default_rng(11)
        cfg = SpaceConfig(dim=6, arity=4)
        for _ in range(300):
            vs = rng.uniform(-1, 1, (4, 6))
            assert determinant(gram_matrix(cfg, vs)) >= -DEFAULT_TOL.zero

    def test_parallelepiped_volume_identity(self):
        # square case: sqrt(det Gram) equals |det| of the coordinate matrix
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            cfg = SpaceConfig(dim=n, arity=n)
            a = rng.uniform(-1, 1, (n, n))
            vol = math.sqrt(max(determinant(gram_matrix(cfg, a)), 0.0))
            ref = abs(determinant(a))
            assert abs(vol - ref) <= 1e-9 * max(ref, hadamard_bound(a.tolist()), 1e-30)


def test_as_vector_validates():
    with pytest.raises(DimensionMismatch):
        as_vector([[1, 2]])
    with pytest.raises(ValueError):
        as_vector([1.0, float("inf")])
    v = as_vector([1, 2, 3], dim=3)
    assert v.dtype == float


def test_hadamard_scale():
    cfg = SpaceConfig(dim=2, arity=2)
    assert hadamard_scale(cfg, [[3, 4], [1, 0]]) == pytest.approx(5.0)
    # the plain product of 1e-160, 1e-160 and 1e160 passes through a
    # subnormal and gave 9.99989e-161, alone and in a stack
    cfg = SpaceConfig(dim=3, arity=3)
    rows = np.diag([1e-160, 1e-160, 1e160])
    injected = NNorm(cfg, "injected", lambda vs: 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hadamard_scale(cfg, rows) == 1e-160
        for norm in (standard_nnorm(cfg), injected):
            assert fresh_evaluate(norm, np.array([rows, np.eye(3)]))[1] == [1e-160, 1.0]
