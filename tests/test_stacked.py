"""The stacked paths against the per-item paths they replace, bit for bit:
`FrameGeometry.profiles` against `profile` row by row, the coset helper
against `coset_invariance_check`, unit rows reused by derived stacks against
`unit_rows` of those stacks, the bitmask covers against set unions, the
axiom sampler's profile stacks against a per-sample loop, and the copied
axiom generators against deep copies."""

import copy
import math
from itertools import combinations, permutations

import numpy as np
import pytest

from nnormkit import nnorm, quotient
from nnormkit.linalg import SpaceConfig, Tolerance, _unit_volumes, _volumes, unit_rows
from nnormkit.nnorm import NNorm, _Batch, _first_rows, check_axioms, standard_nnorm, standard_norm
from nnormkit.quotient import (
    Frame,
    FrameGeometry,
    IndexSet,
    _adversarial_member,
    _coset_gaps,
    _escape_direction,
    _profile,
    class_collection,
    coset_invariance_check,
    quotient_norm_axioms,
    random_frame,
)
from nnormkit.topology import NormSelection, _covering_families, covering_check, enumerate_minimal_covers, minimal_cover_size

from oracles import fresh_evaluate, fresh_units

SHAPES = [(n, d) for n in range(1, 6) for d in range(n, 8)]
BATCHES = (1, 2, 7, 257)


def spd_metric(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


def space(n: int, d: int, metric: bool, seed: int = 0) -> SpaceConfig:
    return SpaceConfig(d, n, spd_metric(np.random.default_rng(seed), d) if metric else None)


def outcome(run):
    """Each profile's values, scales and zero flags as bytes, or the class
    and message of what `run` raised."""
    try:
        return [(p.values.tobytes(), p.scales.tobytes(), p.zero.tobytes()) for p in run()]
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_profiles(geometry: FrameGeometry, us: np.ndarray, columns) -> None:
    expected = outcome(lambda: [geometry.profile(u, columns) for u in us])
    assert outcome(lambda: geometry.profiles(us, columns)) == expected


def frozen(obj):
    """A comparable form of axiom reports that keeps every bit: arrays as
    their bytes, floats as hex."""
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, dict):
        return tuple((key, frozen(value)) for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(frozen(x) for x in obj)
    if isinstance(obj, (nnorm.AxiomReport, nnorm.Witness)):
        return type(obj).__name__, frozen(list(vars(obj).values()))
    return repr(obj)


def mixed_rows(rng, batch: int, d: int) -> np.ndarray:
    """Uniform rows, with zero rows (of 0.0 and of -0.0) and rows scaled by
    2**1000 and 2**-1000 (the exact-range path) among them."""
    us = rng.uniform(-1.0, 1.0, (batch, d))
    us[::5] = 0.0
    us[4::13] = -0.0
    us[1::7] *= 2.0**1000
    us[3::11] *= 2.0**-1000
    return us


class TestStackedProfiles:
    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_rows_match_the_single_vector_profile(self, n, d, metric):
        rng = np.random.default_rng(10 * n + d)
        frame = random_frame(space(n, d, metric), rng)
        geometry = frame.geometry(frame.space)
        for batch in BATCHES:
            us = mixed_rows(rng, batch, d)
            for columns in (None, IndexSet((1,)), IndexSet((n,))):
                assert_same_profiles(geometry, us, columns)

    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(3, 3), (3, 5), (5, 7)])
    def test_a_frame_with_shifts(self, n, d, metric):
        # two rows at 2**600: the product of the other lengths leaves the
        # double range for every j but the first two's partners, so every
        # row takes the exact path, and a column whose scale is out of range
        # raises when requested and is NaN otherwise
        rng = np.random.default_rng(n + d)
        rows = random_frame(space(n, d, metric), rng).vectors.copy()
        rows[:2] *= 2.0**600
        frame = Frame(space(n, d, metric), rows)
        geometry = frame.geometry(frame.space)
        assert any(geometry._shifts)
        for batch in BATCHES:
            small = rng.uniform(-1.0, 1.0, (batch, d)) * 2.0**-1000
            small[::3] = 0.0
            for columns in (None, IndexSet((1,)), IndexSet((n,))):
                assert_same_profiles(geometry, small, columns)
                assert_same_profiles(geometry, mixed_rows(rng, batch, d), columns)

    def test_an_out_of_range_column_raises_as_profile_raises(self):
        rows = np.eye(3) * 2.0**600
        frame = Frame(SpaceConfig(3, 3), rows)
        geometry = frame.geometry(frame.space)
        us = np.array([[1e-300, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(quotient.ScaleOutOfRange) as raised:
            geometry.profiles(us, IndexSet((3,)))
        expected = outcome(lambda: [geometry.profile(u, IndexSet((3,))) for u in us])
        assert expected == (quotient.ScaleOutOfRange, str(raised.value))
        assert_same_profiles(geometry, us, IndexSet((1,)))

    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_non_finite_row_raises_as_profile_raises(self, metric, bad, where):
        frame = random_frame(space(3, 4, metric), np.random.default_rng(5))
        geometry = frame.geometry(frame.space)
        us = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 4))
        us[3, where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            geometry.profiles(us)
        assert_same_profiles(geometry, us, None)

    def test_an_earlier_out_of_range_row_raises_first(self):
        frame = Frame(SpaceConfig(3, 3), np.eye(3) * 2.0**600)
        geometry = frame.geometry(frame.space)
        us = np.array([[1.0, 2.0, 3.0], [math.nan, 0.0, 0.0]])
        with pytest.raises(quotient.ScaleOutOfRange):
            geometry.profiles(us)
        assert_same_profiles(geometry, us, None)


class TestCosetGaps:
    @pytest.mark.parametrize("kind", ["standard", "injected"])
    @pytest.mark.parametrize("n, d, metric", [(1, 1, False), (2, 3, False), (3, 3, True), (4, 6, False), (5, 5, True)])
    def test_each_row_matches_the_one_row_check(self, n, d, metric, kind):
        rng = np.random.default_rng(n * d)
        cfg = space(n, d, metric)
        frame = random_frame(cfg, rng)
        norm = standard_nnorm(cfg) if kind == "standard" else NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs))
        for m in range(1, n + 1):
            for s in class_collection(n, m):
                complement = s.complement(n)
                us = rng.uniform(-1.0, 1.0, (7, d))
                us[2] = 0.0
                coefficients = rng.uniform(-5.0, 5.0, (7, len(complement)))
                gaps = _coset_gaps(frame, norm, s, us, coefficients)
                for u, row, gap in zip(us, coefficients, gaps):
                    passed, expected = coset_invariance_check(frame, norm, u, s, dict(zip(complement, row.tolist())))
                    assert float.hex(gap) == float.hex(expected) and passed is (gap <= cfg.tol.rel)

    def test_an_injected_evaluator_sees_the_one_row_calls(self):
        cfg = SpaceConfig(4, 3)
        frame = random_frame(cfg, np.random.default_rng(1))
        calls = []
        norm = NNorm(cfg, "injected", lambda vs: calls.append(np.array(vs).tobytes()) or standard_norm(cfg, vs))
        s = IndexSet((1, 3))
        rng = np.random.default_rng(2)
        us, coefficients = rng.uniform(-1.0, 1.0, (5, 4)), rng.uniform(-5.0, 5.0, (5, 1))
        _coset_gaps(frame, norm, s, us, coefficients)
        stacked, calls[:] = calls[:], []
        for u, c in zip(us, coefficients):
            coset_invariance_check(frame, norm, u, s, {2: float(c[0])})
        assert stacked == calls and len(calls) == 5 * 2 * 2

    def test_a_shift_that_overflows_raises(self):
        # 0.5 + 4 * 1e308 overflows in the second row's shift
        us = np.array([[0.5, 0.5], [0.0, 0.5]])
        frame = Frame(SpaceConfig(2, 2), np.eye(2) * 1e308)
        with pytest.raises(ValueError, match="non-finite"):
            _coset_gaps(frame, standard_nnorm(frame.space), IndexSet((1,)), us, np.array([[0.0], [4.0]]))


class TestReusedUnitRows:
    @staticmethod
    def stacks(rng, n: int, d: int):
        stack = rng.uniform(-1.0, 1.0, (9, n, d))
        stack[1, 0] = 0.0  # a zero row
        stack[2] *= 2.0**600  # lengths that overflow the Gram matrix
        stack[3, -1] *= 2.0**-600
        return stack

    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 6), (4, 7), (5, 5), (5, 7)])
    def test_split_volumes_permuted_and_first_rows(self, n, d, metric):
        rng = np.random.default_rng(n + 7 * d)
        cfg = space(n, d, metric)
        stack = self.stacks(rng, n, d)
        units, lengths = unit_rows(cfg, stack)
        assert _unit_volumes(units, lengths) == _volumes(cfg, stack)[0]
        # a permuted tuple's unit rows and lengths are its base's, permuted
        perms = np.array([list(permutations(range(n)))[: 8]] * len(stack))
        index = (np.arange(len(stack))[:, None, None], perms)
        derived = stack[index].reshape(-1, n, d)
        expected_units, expected_lengths = unit_rows(cfg, derived)
        permuted_units = units[index].reshape(derived.shape)
        permuted_lengths = np.array(lengths).reshape(-1, n)[index].ravel().tolist()
        assert permuted_units.tobytes() == expected_units.tobytes()
        assert permuted_lengths == expected_lengths
        assert _unit_volumes(permuted_units, permuted_lengths) == _volumes(cfg, derived)[0]
        # new first rows: only they are measured, as in the whole new stack
        firsts = stack.copy()
        firsts[:, 0] = rng.uniform(-3.0, 3.0, (len(stack), d))
        firsts[4, 0] = 0.0
        first_units, first_lengths = unit_rows(cfg, firsts, first=True)
        all_units, all_lengths = unit_rows(cfg, firsts)
        assert first_units.tobytes() == all_units[:, 0].tobytes()
        assert first_lengths == all_lengths[::n]

    @pytest.mark.parametrize("kind", ["standard", "injected"])
    @pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
    @pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (3, 5), (5, 6)])
    def test_derived_stacks_evaluate_as_fresh_stacks(self, n, d, metric, kind):
        rng = np.random.default_rng(3 * n + d)
        cfg = space(n, d, metric)
        norm = standard_nnorm(cfg) if kind == "standard" else NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs))
        batch = _Batch(list(self.stacks(rng, n, d))).evaluate(norm)
        scaled, summed = batch.stack[:, 0] * 3.5, batch.stack[:, 0] + rng.uniform(-1.0, 1.0, (len(batch.tuples), d))
        derived = np.concatenate([batch.stack] * 2)
        derived[:, 0] = np.concatenate([scaled, summed])
        assert _first_rows(norm, batch, scaled, summed) == fresh_evaluate(norm, derived)
        assert (batch.values, batch.scales) == fresh_evaluate(norm, batch.stack)

    @pytest.mark.parametrize("kind", ["standard", "injected"])
    def test_a_non_finite_first_row_raises(self, kind):
        # before any evaluator call on the derived stack
        cfg = SpaceConfig(3, 2)
        calls = []
        norm = standard_nnorm(cfg) if kind == "standard" else NNorm(cfg, "injected", lambda vs: calls.append(1) or 1.0)
        batch = _Batch([np.eye(2, 3)] * 3).evaluate(norm)
        calls.clear()
        firsts = np.ones((3, 3))
        firsts[1, 2] = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            _first_rows(norm, batch, firsts)
        assert calls == []

    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=1e-300)], ids=["default", "strict"])
    @pytest.mark.parametrize("n, d, metric", [(2, 2, False), (3, 5, True), (4, 4, False), (5, 6, True)])
    def test_check_axioms_matches_fresh_stacks(self, n, d, metric, tol, monkeypatch):
        # the same reports with every derived stack measured afresh
        cfg = SpaceConfig(d, n, spd_metric(np.random.default_rng(0), d) if metric else None, tol)
        stacked = check_axioms(standard_nnorm(cfg), trials=30, seed=n + d)
        evaluate = nnorm._evaluate
        monkeypatch.setattr(nnorm, "_evaluate", lambda norm, stack, units: evaluate(norm, stack, fresh_units(cfg, stack)))
        assert frozen(check_axioms(standard_nnorm(cfg), trials=30, seed=n + d)) == frozen(stacked)


def brute_force_covers(n: int, members, size: int) -> list[tuple]:
    return [family for family in combinations(members, size) if set().union(*(s.indices for s in family)) == set(range(1, n + 1))]


class TestBitmaskCovers:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumerated_families_match_a_set_union(self, n):
        for m in range(1, n + 1):
            members = class_collection(n, m).members
            size = minimal_cover_size(n, m)
            expected = [NormSelection(n=n, subsets=family) for family in brute_force_covers(n, members, size)]
            assert enumerate_minimal_covers(n, m) == expected
            for other in {max(size - 1, 1), size + 1}:
                if other <= len(members):
                    assert list(_covering_families(n, members, other)) == brute_force_covers(n, members, other)

    def test_covering_check_matches_a_set_union(self):
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            for m in range(1, n + 1):
                members = class_collection(n, m).members
                for _ in range(20):
                    count = int(rng.integers(1, len(members) + 1))
                    family = tuple(members[i] for i in sorted(rng.choice(len(members), count, replace=False)))
                    expected = bool(brute_force_covers(n, family, len(family)))
                    assert covering_check(NormSelection(n=n, subsets=family)) is expected


def per_sample_profiles(frame, norm, s, trials: int, seed: int) -> None:
    """The quotient axiom checks' draws, each vector profiled as soon as it
    is drawn, in the order of the checks' samples: the call order an
    injected evaluator must see."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, frame.dim)
        alpha = float(rng.uniform(-10.0, 10.0))
        _profile(frame, norm, u, s), _profile(frame, norm, alpha * u, s)
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, frame.dim)
        v = rng.uniform(-1.0, 1.0, frame.dim)
        _profile(frame, norm, u, s), _profile(frame, norm, v, s), _profile(frame, norm, u + v, s)
    for t in range(trials):
        if t % 2 == 0:
            u = _adversarial_member(frame, s, rng)
        else:
            delta = 1e-6 if t % 4 == 1 else 1e-3
            u = _adversarial_member(frame, s, rng) + delta * _escape_direction(frame, s, rng)
        _profile(frame, norm, u, s)
    for _ in range(trials):
        _profile(frame, norm, _adversarial_member(frame, s, rng), s)


class TestQuotientAxiomStacks:
    @pytest.mark.parametrize("n, d, metric", [(1, 2, False), (2, 2, False), (3, 5, True), (4, 4, False), (5, 6, True)])
    def test_an_injected_evaluator_sees_the_per_sample_calls(self, n, d, metric):
        cfg = space(n, d, metric)
        frame = random_frame(cfg, np.random.default_rng(n))
        calls = []
        norm = NNorm(cfg, "injected", lambda vs: calls.append(np.array(vs).tobytes()) or standard_norm(cfg, vs))
        for s in [IndexSet((1,)), IndexSet(tuple(range(1, n + 1)))]:
            calls.clear()
            quotient_norm_axioms(frame, norm, s, trials=9, seed=4)
            stacked = calls[:]
            calls.clear()
            per_sample_profiles(frame, norm, s, trials=9, seed=4)
            assert stacked == calls and len(calls) == 9 * 7 * s.m

    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=1e-300)], ids=["default", "strict"])
    @pytest.mark.parametrize("n, d, metric", [(1, 1, False), (2, 4, False), (3, 3, True), (5, 7, False), (5, 5, True)])
    def test_reports_match_per_vector_profiles(self, n, d, metric, tol, monkeypatch):
        cfg = SpaceConfig(d, n, spd_metric(np.random.default_rng(0), d) if metric else None, tol)
        frame = random_frame(cfg, np.random.default_rng(n + d))
        norm = standard_nnorm(cfg)
        subsets = [s for m in range(1, n + 1) for s in class_collection(n, m)]
        stacked = [frozen(quotient_norm_axioms(frame, norm, s, trials=12, seed=9)) for s in subsets]
        monkeypatch.setattr(FrameGeometry, "profiles", lambda self, us, columns=None: [self.profile(u, columns) for u in us])
        assert [frozen(quotient_norm_axioms(frame, norm, s, trials=12, seed=9)) for s in subsets] == stacked


class TestCopiedGenerators:
    def test_each_check_draws_what_a_deep_copy_draws(self, monkeypatch):
        copy_rng = nnorm._copy_rng
        seen = []

        def checked(rng):
            state = copy.deepcopy(rng.bit_generator.state)
            for draw in (lambda g: g.uniform(size=9), lambda g: g.permutation(6), lambda g: g.normal(size=3)):
                assert draw(copy_rng(rng)).tobytes() == draw(copy.deepcopy(rng)).tobytes()
            assert rng.bit_generator.state == state  # the original is untouched
            seen.append(state)
            return copy_rng(rng)

        monkeypatch.setattr(nnorm, "_copy_rng", checked)
        check_axioms(standard_nnorm(SpaceConfig(6, 5)), trials=7, seed=3)
        assert len(seen) == len(nnorm._CHECKS)

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=1e-300)], ids=["default", "strict"])
    def test_reports_match_deep_copies(self, seed, tol, monkeypatch):
        # n = 5 draws random permutations from each copy
        norms = [standard_nnorm(SpaceConfig(d, n, tol=tol)) for n, d in [(2, 3), (5, 5)]]
        copied = [frozen(check_axioms(norm, trials=15, seed=seed)) for norm in norms]
        monkeypatch.setattr(nnorm, "_copy_rng", copy.deepcopy)
        assert [frozen(check_axioms(norm, trials=15, seed=seed)) for norm in norms] == copied
