"""Sampled Cauchy and boundedness verdicts read a table through its
successive gaps: they agree with the closed form wherever they conclude,
tables at zero scale settle at the floor of their entries, and each verdict
call profiles the first entry and the L - 1 gaps (Cauchy), or the entries
and, only when a trace rises, the gaps (boundedness)."""

import numpy as np
import pytest

from corpus import build_corpus
from nnormkit import topology
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import random_frame
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
        # (entries, Cauchy profiles, boundedness profiles)
        # every trace falls: boundedness takes the entries only
        "falling": ([(k, x / k) for k in range(1, TABLE_LENGTH + 1)], TABLE_LENGTH, TABLE_LENGTH),
        # traces rise with fresh gaps: the entries and the L - 1 gaps
        "rising": ([(k, k * x + np.sqrt(k) * e) for k in range(1, TABLE_LENGTH + 1)], TABLE_LENGTH, 2 * TABLE_LENGTH - 1),
        # traces rise, but every gap is exactly x_1: no further profile
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
