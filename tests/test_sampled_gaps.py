"""Sampled Cauchy and boundedness verdicts read a table through its
successive gaps: they agree with the closed form wherever they conclude,
tables at zero scale settle at the floor of their entries, and each verdict
call profiles the L - 1 gaps (Cauchy, which measures the first entry's
scales for its floor without evaluating it), or the entries and, only when
a trace rises, the gaps (boundedness)."""

import math

import numpy as np
import pytest

from corpus import build_corpus
from nnormkit import topology
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import Frame, ScaleOutOfRange, random_frame
from nnormkit.topology import (
    Conclusion,
    SequenceKind,
    custom_sequence,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
)

TABLE_LENGTH = 6
SHAPES = [(3, 3), (3, 5), (5, 5), (5, 6)]


def _counting_norm(cfg):
    calls = []

    def evaluator(vs):
        calls.append(len(vs))
        return standard_norm(cfg, vs)

    return NNorm(cfg, "injected", evaluator), calls


def _norm(cfg, injected):
    return _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)


def _table(spec):
    return custom_sequence([(k, eval_sequence(spec, k)) for k in range(1, TABLE_LENGTH + 1)])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("n, d", SHAPES)
def test_sampled_conclusions_agree_with_the_closed_form(n, d, injected, seed):
    # every closed-form kind, its direction in the frame's span for one
    # entry of each kind and generic for the other two
    cfg = SpaceConfig(dim=d, arity=n)
    rng = np.random.default_rng(seed)
    frame = random_frame(cfg, rng)
    norm = _norm(cfg, injected)
    for spec, _, _ in build_corpus(rng, d, frame.vectors, per_kind=3):
        table = _table(spec)
        for m in (1, n):
            selection = full_selection(n, m)
            cauchy = is_cauchy_wrt(table, frame, norm, selection).conclusion
            bounded = is_bounded_wrt(table, frame, norm, selection).conclusion
            assert cauchy in (Conclusion.INCONCLUSIVE, is_cauchy_wrt(spec, frame, norm, selection).conclusion)
            assert bounded in (Conclusion.INCONCLUSIVE, is_bounded_wrt(spec, frame, norm, selection).conclusion)
            if spec.kind is SequenceKind.DIVERGENT_LINEAR:
                assert (cauchy, bounded) == (Conclusion.INCONCLUSIVE, Conclusion.INCONCLUSIVE)
            if spec.kind is SequenceKind.CONVERGENT_POWER:
                assert (cauchy, bounded) == (Conclusion.CAUCHY, Conclusion.BOUNDED)


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_partial_sums_of_the_harmonic_series_pass_as_cauchy_and_bounded(injected):
    # the documented limitation: gaps 1/k settle on a table of eight or more
    # terms from k = 1, yet the sums diverge
    cfg = SpaceConfig(dim=3, arity=3)
    frame = random_frame(cfg, np.random.default_rng(5))
    norm = _norm(cfg, injected)
    v = np.array([1.0, -0.5, 0.25])
    sums = np.cumsum([1.0 / k for k in range(1, 11)])
    table = custom_sequence([(k, h * v) for k, h in enumerate(sums, 1)])
    selection = full_selection(3, 1)
    assert is_cauchy_wrt(table, frame, norm, selection).conclusion is Conclusion.CAUCHY
    assert is_bounded_wrt(table, frame, norm, selection).conclusion is Conclusion.BOUNDED


def _zero_scale_tables(d):
    x = np.random.default_rng(7).uniform(-1.0, 1.0, d)
    up = np.nextafter(x, np.inf)
    return {
        "all-zero": [np.zeros(d)] * TABLE_LENGTH,
        # entries one ulp apart in every coordinate: the gaps are pure
        # rounding, at zero scale against the entries but not against
        # themselves
        "one-ulp": [x if k % 2 else up for k in range(1, TABLE_LENGTH + 1)],
    }


@pytest.mark.parametrize("which", ["all-zero", "one-ulp"])
@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("n, d", [(3, 3), (4, 5)])
def test_zero_scale_tables_are_cauchy_and_bounded(n, d, injected, which):
    cfg = SpaceConfig(dim=d, arity=n)
    frame = random_frame(cfg, np.random.default_rng(n + d))
    norm = _norm(cfg, injected)
    table = custom_sequence(enumerate(_zero_scale_tables(d)[which], 1))
    for m in (1, n):
        selection = full_selection(n, m)
        assert is_cauchy_wrt(table, frame, norm, selection).conclusion is Conclusion.CAUCHY
        assert is_bounded_wrt(table, frame, norm, selection).conclusion is Conclusion.BOUNDED


def _count_profiles(monkeypatch) -> list:
    """Count the profiles the verdicts take, under either norm."""
    taken = []
    original = topology._profile

    def counting(frame, norm, u, columns):
        taken.append(u)
        return original(frame, norm, u, columns)

    monkeypatch.setattr(topology, "_profile", counting)
    return taken


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_gaps_are_profiled_once_and_only_where_needed(injected, monkeypatch):
    cfg = SpaceConfig(dim=4, arity=3)
    rng = np.random.default_rng(9)
    frame = random_frame(cfg, rng)
    norm, calls = _counting_norm(cfg) if injected else (standard_nnorm(cfg), [])
    selection = full_selection(3, 1)
    taken = _count_profiles(monkeypatch)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    x = rng.uniform(1.0, 2.0, 4)
    tables = {
        # (entries, Cauchy profiles, boundedness profiles); Cauchy profiles
        # the L - 1 gaps, and takes only the scales of x_1, with no profile
        # every trace falls: boundedness takes the entries only
        "falling": ([(k, x / k) for k in range(1, TABLE_LENGTH + 1)], TABLE_LENGTH - 1, TABLE_LENGTH),
        # traces rise with fresh gaps: the entries and the L - 1 gaps
        "rising": ([(k, k * x + np.sqrt(k) * e) for k in range(1, TABLE_LENGTH + 1)], TABLE_LENGTH - 1, 2 * TABLE_LENGTH - 1),
        # traces rise, but every gap is exactly x_1: one gap profile, and
        # no further profile for boundedness
        "rising by x_1": ([(k, k * e) for k in range(1, TABLE_LENGTH + 1)], 1, TABLE_LENGTH),
    }
    for name, (entries, cauchy_profiles, bounded_profiles) in tables.items():
        table = custom_sequence(entries)
        for verdict, profiles in [(is_cauchy_wrt, cauchy_profiles), (is_bounded_wrt, bounded_profiles)]:
            verdict(table, frame, norm, selection)
            assert len(taken) == profiles, (name, verdict.__name__)
            assert len(calls) == (3 * profiles if injected else 0), (name, verdict.__name__)
            taken.clear()
            calls.clear()


def _refusing_norm(cfg, x1):
    """An injected `standard_norm` that raises on any tuple whose first row
    is x1."""

    def evaluator(vs):
        if np.array_equal(vs[0], x1):
            raise AssertionError("x_1 was evaluated")
        return standard_norm(cfg, vs)

    return NNorm(cfg, "injected", evaluator)


def _cauchy_bits(verdict) -> tuple:
    """Everything a sampled Cauchy verdict reports, floats as their bits."""
    return (
        verdict.conclusion,
        verdict.window,
        verdict.limit,
        None if verdict.bound is None else verdict.bound.hex(),
        tuple((p.k, p.subset.indices, p.value.hex()) for p in verdict.evidence),
    )


@pytest.mark.parametrize("n, d", SHAPES)
def test_the_cauchy_floor_does_not_evaluate_x_1(n, d):
    # the floor reads x_1's scales only: an evaluator that refuses x_1 gives
    # the verdicts a well-behaved one gives, bit for bit, on every table
    # none of whose gaps is x_1 itself (a linear table's are)
    cfg = SpaceConfig(dim=d, arity=n)
    rng = np.random.default_rng(10 * n + d)
    frame = random_frame(cfg, rng)
    checked = 0
    for spec, _, _ in build_corpus(rng, d, frame.vectors, per_kind=3):
        table = _table(spec)
        vectors = [v for _, v in table.table]
        if any(np.array_equal(b - a, vectors[0]) for a, b in zip(vectors, vectors[1:])):
            continue
        for m in (1, n):
            selection = full_selection(n, m)
            want = is_cauchy_wrt(table, frame, _counting_norm(cfg)[0], selection)
            got = is_cauchy_wrt(table, frame, _refusing_norm(cfg, vectors[0]), selection)
            assert _cauchy_bits(got) == _cauchy_bits(want), (spec.kind, m)
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_an_out_of_range_x_1_scale_raises_before_any_call(injected):
    # x_1's scales against y_2 and y_3 are about 5e399, against y_1 in
    # range; its one gap is in range against every row. The floor's range
    # check raises for column 2 before any column is evaluated, where x_1's
    # profile called the evaluator for column 1 first
    cfg = SpaceConfig(dim=3, arity=3)
    frame = Frame(cfg, np.diag([1e200, 1.0, 1.0]))
    norm, calls = _counting_norm(cfg) if injected else (standard_nnorm(cfg), [])
    x1 = np.array([5e199, 0.0, 0.3])
    table = custom_sequence([(1, x1), (2, x1 + np.array([0.0, 1e-3, 0.0]))])
    with pytest.raises(ScaleOutOfRange) as caught:
        is_cauchy_wrt(table, frame, norm, full_selection(3, 1))
    assert caught.value.index == 2
    assert caught.value.log10_scale == pytest.approx(199 + math.log10(5.0) + 200, abs=1e-9)
    assert calls == []
