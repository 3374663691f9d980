"""A verdict call profiles each distinct vector once per column set:
repeated table entries, zero gaps and coinciding trace vectors share one
profile, an injected evaluator sees each distinct (vector, columns) pair
once, every result equals an un-memoised reference bit for bit, and a
vector that overflows still raises where it first occurs."""

import warnings

import numpy as np
import pytest

from corpus import build_corpus
from nnormkit import topology
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, _profile, random_frame
from nnormkit.topology import (
    NormSelection,
    Verdict,
    constant,
    converges_wrt,
    custom_sequence,
    equivalence_matrix,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    oscillating,
)

TABLE_LENGTH = 6
SELECTIONS = [full_selection(4, 1), full_selection(4, 4), NormSelection(4, (IndexSet([1, 3]), IndexSet([3, 4])))]
SELECTION_IDS = ["class-1", "class-4", "columns-1-3-4"]


def _counting_norm(cfg):
    calls = []

    def evaluator(vs):
        calls.append(len(vs))
        return standard_norm(cfg, vs)

    return NNorm(cfg, "injected", evaluator), calls


def _frame():
    cfg = SpaceConfig(dim=5, arity=4)
    rng = np.random.default_rng(11)
    return cfg, random_frame(cfg, rng), rng


def _table(spec):
    return custom_sequence([(k, eval_sequence(spec, k)) for k in range(1, TABLE_LENGTH + 1)])


def _bits(verdict: Verdict) -> tuple:
    """Everything a verdict reports, with floats as their exact bits."""
    return (
        verdict.conclusion,
        verdict.method,
        verdict.window,
        None if verdict.limit is None else verdict.limit.tobytes(),
        None if verdict.bound is None else float(verdict.bound).hex(),
        tuple((p.k, p.subset.indices, float(p.value).hex()) for p in verdict.evidence),
    )


#: distinct vectors the convergence, Cauchy and boundedness verdicts profile
#: on a 6-term table: a constant table has one offset, one gap (zero) and
#: one term; an oscillating one has two offsets, two gaps (x_2 - x_1 and
#: x_3 - x_2) and two terms (its trace does not rise, so boundedness
#: profiles no gap). The Cauchy floor reads the first term's scales only,
#: which take no evaluator call
DISTINCT = {"constant": (1, 1, 1), "oscillating": (2, 2, 2)}


@pytest.mark.parametrize("selection", SELECTIONS, ids=SELECTION_IDS)
@pytest.mark.parametrize("kind", sorted(DISTINCT))
def test_repeated_table_vectors_are_evaluated_once(kind, selection):
    cfg, frame, rng = _frame()
    x, v = rng.uniform(-1.0, 1.0, (2, 5))
    table = _table(constant(x) if kind == "constant" else oscillating(x, v, coefficient=0.75))
    columns = len(selection.union())
    norm, calls = _counting_norm(cfg)
    convergence, cauchy, boundedness = DISTINCT[kind]
    converges_wrt(table, frame, norm, selection, x + v)
    assert len(calls) == convergence * columns
    calls.clear()
    is_cauchy_wrt(table, frame, norm, selection)
    assert len(calls) == cauchy * columns
    calls.clear()
    is_bounded_wrt(table, frame, norm, selection)
    assert len(calls) == boundedness * columns


@pytest.mark.parametrize("selection", SELECTIONS, ids=SELECTION_IDS)
def test_repeated_points_are_evaluated_once(selection):
    cfg, frame, rng = _frame()
    p, q = rng.uniform(-1.0, 1.0, (2, 5))
    norm, calls = _counting_norm(cfg)
    # lists and arrays of the same coordinates are the same vector
    verdict = is_bounded_wrt([p, q, p.tolist(), p, list(q)], frame, norm, selection)
    assert len(calls) == 2 * len(selection.union())
    assert [point.k for point in verdict.evidence] == [k for _ in selection.subsets for k in range(1, 6)]


def _unmemoised(monkeypatch):
    """Make every verdict take one `_profile` per vector, as if no two were
    equal: `_profiles` keeps no memo, and an analytic call's value map
    profiles a vector on every request, so each entry of an evidence row is
    profiled on its own when the row is read."""

    def profiles(frame, norm, vectors, columns, memo):
        return [_profile(frame, norm, u, columns) for u in vectors]

    def request(values, key):
        return _profile(values.frame, values.norm, np.frombuffer(key[0]), key[1])._value_list

    monkeypatch.setattr(topology, "_profiles", profiles)
    monkeypatch.setattr(topology._Class1Values, "__getitem__", request)


def _outputs(specs, frame, norm, limits) -> list:
    """Every verdict and equivalence row over the specs, as exact bits."""
    n = frame.n
    out = []
    for spec, limit in zip(specs, limits):
        for m in (1, n):
            selection = full_selection(n, m)
            out.append(_bits(converges_wrt(spec, frame, norm, selection, limit)))
            out.append(_bits(is_cauchy_wrt(spec, frame, norm, selection)))
            out.append(_bits(is_bounded_wrt(spec, frame, norm, selection)))
        if spec.kind is not topology.SequenceKind.CUSTOM:
            for row in equivalence_matrix(spec, frame, norm, limit).rows:
                out.append(tuple(_bits(v) for v in (row.convergence, row.boundedness, row.cauchy)))
    return out


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 4), (4, 6)])
def test_results_equal_an_unmemoised_reference_bit_for_bit(n, d, injected, monkeypatch):
    rng = np.random.default_rng(100 * n + d)
    cfg = SpaceConfig(dim=d, arity=n)
    frame = random_frame(cfg, rng)
    norm, calls = _counting_norm(cfg) if injected else (standard_nnorm(cfg), [])
    corpus = build_corpus(rng, d, frame.vectors, per_kind=2)
    specs = [spec for spec, _, _ in corpus] + [_table(spec) for spec, _, _ in corpus]
    limits = [limit for _, limit, _ in corpus] * 2
    points = [rng.uniform(-1.0, 1.0, d) for _ in range(3)]
    memoised = _outputs(specs, frame, norm, limits)
    memoised.append(_bits(is_bounded_wrt(points + points[::-1], frame, norm, full_selection(n, 1))))
    memoised_calls = len(calls)
    _unmemoised(monkeypatch)
    calls.clear()
    reference = _outputs(specs, frame, norm, limits)
    reference.append(_bits(is_bounded_wrt(points + points[::-1], frame, norm, full_selection(n, 1))))
    assert memoised == reference
    if injected:
        assert memoised_calls < len(calls)


def test_one_vector_under_two_column_sets_gets_two_profiles():
    cfg, frame, rng = _frame()
    norm, calls = _counting_norm(cfg)
    u = rng.uniform(-1.0, 1.0, 5)
    memo = {}
    (narrow,) = topology._profiles(frame, norm, [u], (1, 3), memo)
    (wide,) = topology._profiles(frame, norm, [u], (1, 2, 3, 4), memo)
    assert narrow is not wide
    assert len(calls) == 2 + 4
    assert np.isnan(narrow.values[1]) and not np.isnan(wide.values[1])
    assert narrow.values[[0, 2]].tobytes() == wide.values[[0, 2]].tobytes()
    # a copy of u under either column set is the profile taken before
    again = topology._profiles(frame, norm, [u.copy(), u], (1, 3), memo)
    assert again[0] is narrow and again[1] is narrow
    assert topology._profiles(frame, norm, [u.copy()], (1, 2, 3, 4), memo)[0] is wide
    assert len(calls) == 6


def test_traces_and_evidence_under_other_columns_are_apart():
    # a constant's offset from the limit is traced under all four columns
    # by the call, and sampled as evidence under the selection's two on the
    # first read of the evidence: 4, then 4 + 2 calls
    cfg, frame, rng = _frame()
    norm, calls = _counting_norm(cfg)
    x, limit = rng.uniform(-1.0, 1.0, (2, 5))
    verdict = converges_wrt(constant(x), frame, norm, NormSelection(4, (IndexSet([1, 3]),)), limit)
    assert len(calls) == 4
    verdict.evidence
    assert len(calls) == 4 + 2


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_an_overflowing_table_vector_raises_where_it_first_occurs(injected):
    cfg, frame, rng = _frame()
    norm, calls = _counting_norm(cfg) if injected else (standard_nnorm(cfg), [])
    x = rng.uniform(-1.0, 1.0, 5)
    big = np.array([1e308, 0.0, 0.0, 0.0, 0.0])
    # x_1's scales are taken first, with no evaluator call, then the gaps
    # are profiled in step order: 0, big - x, then -big - big, which
    # overflows
    table = custom_sequence([(1, x), (2, x), (3, big), (4, -big)])
    selection = full_selection(4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite coordinates"):
            is_cauchy_wrt(table, frame, norm, selection)
        assert len(calls) == (2 * 4 if injected else 0)
        calls.clear()
        # x_3 - (-big) overflows after x_1 - (-big) and x_2 - (-big), one vector
        with pytest.raises(ValueError, match="non-finite coordinates"):
            converges_wrt(table, frame, norm, selection, -big)
        assert len(calls) == (1 * 4 if injected else 0)
