"""Validation happens once, at the public boundary: the errors a bad tuple
gets from `standard_norm`, how often the sampled verdicts call an injected
evaluator and the vector validator, what an equivalence table validates,
and the one quotient zero rule."""

import importlib

import numpy as np
import pytest

from nnormkit import linalg
from nnormkit.linalg import DimensionMismatch, SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, in_kept_span, is_quotient_zero, random_frame, standard_frame
from nnormkit.topology import (
    NormSelection,
    convergent_power,
    converges_wrt,
    custom_sequence,
    equivalence_matrix,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    zero_profile,
)

CFG = SpaceConfig(dim=3, arity=2)
TABLE_LENGTH = 6


@pytest.mark.parametrize(
    "vs, message",
    [
        ([[1, 0, 0]], "vector count: expected 2, got 1"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "vector count: expected 2, got 3"),
        ([[1, 0], [0, 1]], "vector length: expected 3, got 2"),
        ([[1, 0, 0], [0, 1]], "vector length: expected 3, got 2"),
        ([[1, 0, 0], [0, 1, 0, 0]], "vector length: expected 3, got 4"),
        ([[1, 0, 0], [[0, 1, 0]]], "vector ndim: expected 1, got 2"),
        ([[[1, 0, 0]], [[0, 1, 0]]], "vector ndim: expected 1, got 2"),
        ([1.0, 2.0], "vector ndim: expected 1, got 0"),
    ],
)
def test_standard_norm_rejects_misshapen_tuples(vs, message):
    with pytest.raises(DimensionMismatch) as err:
        standard_norm(CFG, vs)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_standard_norm_names_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="non-finite coordinates") as err:
        standard_norm(CFG, [[1.0, 0.0, 0.0], [0.0, bad, 1.0]])
    assert not isinstance(err.value, DimensionMismatch)


def test_standard_norm_reports_the_first_bad_vector():
    # a non-finite first vector is named before a short second one, as a
    # vector-by-vector check would name it
    with pytest.raises(ValueError, match="non-finite coordinates"):
        standard_norm(CFG, [[float("nan"), 0.0, 0.0], [0.0, 1.0]])


def _table_and_frame():
    cfg = SpaceConfig(dim=5, arity=4)
    rng = np.random.default_rng(11)
    frame = random_frame(cfg, rng)
    spec = convergent_power(rng.uniform(-1.0, 1.0, 5), rng.uniform(-1.0, 1.0, 5), coefficient=1.5)
    table = custom_sequence([(k, eval_sequence(spec, k)) for k in range(1, TABLE_LENGTH + 1)])
    return cfg, frame, table, spec.base


def _counting_norm(cfg):
    calls = []

    def evaluator(vs):
        calls.append(len(vs))
        return standard_norm(cfg, vs)

    return NNorm(cfg, "injected", evaluator), calls


@pytest.mark.parametrize(
    "selection, bounded_gaps",
    # the class-1 trace over {2} rises from 0.046 to 0.091 along the table,
    # so boundedness adds the table's gaps there; the sums over two and four
    # indices fall
    [
        (full_selection(4, 1), TABLE_LENGTH - 1),
        (full_selection(4, 4), 0),
        (NormSelection(4, (IndexSet([1, 3]), IndexSet([3, 4]))), 0),
    ],
    ids=["class-1", "class-4", "columns-1-3-4"],
)
def test_sampled_verdicts_evaluate_each_profile_column_once(selection, bounded_gaps):
    cfg, frame, table, limit = _table_and_frame()
    columns = len(selection.union())
    norm, calls = _counting_norm(cfg)
    # one profile per successive gap of the table; the first entry's floor
    # reads its scales only, which take no evaluator call
    is_cauchy_wrt(table, frame, norm, selection)
    assert len(calls) == (TABLE_LENGTH - 1) * columns
    calls.clear()
    converges_wrt(table, frame, norm, selection, limit)
    assert len(calls) == TABLE_LENGTH * columns
    calls.clear()
    is_bounded_wrt(table, frame, norm, selection)
    assert len(calls) == (TABLE_LENGTH + bounded_gaps) * columns


def _count_as_vector(monkeypatch) -> list:
    """Make every module that bound as_vector call a counting one; returns
    the list of `dim` arguments it saw."""
    original = linalg.as_vector
    seen = []

    def counting(x, dim=None):
        seen.append(dim)
        return original(x, dim)

    for name in ("linalg", "nnorm", "quotient", "topology", "cli"):
        module = importlib.import_module(f"nnormkit.{name}")
        if getattr(module, "as_vector", None) is original:
            monkeypatch.setattr(module, "as_vector", counting)
    return seen


def test_sampled_cauchy_validates_each_profiled_vector_once(monkeypatch):
    # the table's vectors were checked when it was built, so neither they
    # nor their differences are checked again; the injected evaluator's
    # tuples are checked as one array, without as_vector
    cfg, frame, table, _ = _table_and_frame()
    norm, _ = _counting_norm(cfg)
    seen = _count_as_vector(monkeypatch)
    is_cauchy_wrt(table, frame, norm, full_selection(4, 2))
    assert len(seen) == 0


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_sampled_convergence_and_boundedness_validate_only_new_input(monkeypatch, injected):
    cfg, frame, table, limit = _table_and_frame()
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    selection = full_selection(4, 2)
    seen = _count_as_vector(monkeypatch)
    converges_wrt(table, frame, norm, selection, limit)
    assert seen == [5]  # the candidate limit
    seen.clear()
    is_bounded_wrt(table, frame, norm, selection)
    assert seen == []
    points = [v for _, v in table.table]
    is_bounded_wrt(points, frame, norm, selection)
    assert seen == [5] * TABLE_LENGTH  # one check per point


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_table_of_another_dimension_is_rejected(injected):
    cfg, frame, _, _ = _table_and_frame()
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    selection = full_selection(4, 1)
    table = custom_sequence([(k, np.full(4, 1.0 / k)) for k in range(1, TABLE_LENGTH + 1)])
    verdicts = [
        lambda: converges_wrt(table, frame, norm, selection, np.zeros(5)),
        lambda: is_cauchy_wrt(table, frame, norm, selection),
        lambda: is_bounded_wrt(table, frame, norm, selection),
    ]
    for verdict in verdicts:
        with pytest.raises(DimensionMismatch, match="sequence dimension: expected 5, got 4"):
            verdict()


def test_quotient_zero_is_decided_per_class1_index():
    # u lies 1.5e-7 |u| from the span of Y without y_1, above the tol.zero
    # = 1e-9 threshold; a rule on the sum over {1,2} would let the zero
    # value against y_2 hide it
    frame = standard_frame(SpaceConfig(3, 3))
    norm = standard_nnorm(frame.space)
    u = np.array([1.5e-7, 0.0, 1.0])
    s = IndexSet([1, 2])
    assert list(zero_profile(frame, norm, u)) == [False, True, False]
    assert not in_kept_span(frame, u, s)
    assert not is_quotient_zero(frame, norm, u, s)


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_equivalence_table_validates_only_its_limit(monkeypatch, injected):
    # the vectors a table computes from its checked spec and limit are
    # profiled without another check
    cfg, frame, _, limit = _table_and_frame()
    spec = convergent_power(limit, np.ones(5), coefficient=0.5)
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    seen = _count_as_vector(monkeypatch)
    equivalence_matrix(spec, frame, norm, limit)
    assert seen == [5]
