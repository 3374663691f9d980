"""equivalence_matrix reads every class-m row off one set of profiles: its
rows equal the public verdicts bit for bit, an injected evaluator is called
once per column of each profile the table needs, and a computed vector that
overflows is still named as non-finite."""

import warnings

import numpy as np
import pytest

from corpus import build_corpus
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, random_frame
from nnormkit.topology import (
    AnalyticTraces,
    Verdict,
    constant,
    convergent_power,
    converges_wrt,
    divergent_linear,
    equivalence_matrix,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    oscillating,
)


def _spd_metric(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


def _counting_norm(cfg):
    calls = []

    def evaluator(vs):
        calls.append(len(vs))
        return standard_norm(cfg, vs)

    return NNorm(cfg, "injected", evaluator), calls


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


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("metric", [False, True], ids=["dot", "spd"])
@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rows_equal_the_public_verdicts(n, extra, metric, injected):
    rng = np.random.default_rng(1000 * n + 10 * extra + metric)
    d = n + extra
    cfg = SpaceConfig(dim=d, arity=n, metric=_spd_metric(rng, d) if metric else None)
    frame = random_frame(cfg, rng)
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    corpus = build_corpus(rng, d, frame.vectors, per_kind=3)
    # a zero oscillation is Cauchy and converges to its centre
    centre = rng.uniform(-1.0, 1.0, d)
    corpus.append((oscillating(centre, rng.uniform(-1.0, 1.0, d), coefficient=0.0), centre, None))
    for spec, limit, _ in corpus:
        table = equivalence_matrix(spec, frame, norm, limit)
        assert [row.m for row in table.rows] == list(range(1, n + 1))
        for row in table.rows:
            sel = full_selection(n, row.m)
            assert _bits(row.convergence) == _bits(converges_wrt(spec, frame, norm, sel, limit, evidence_ks=(1, 10)))
            assert _bits(row.boundedness) == _bits(is_bounded_wrt(spec, frame, norm, sel, evidence_ks=(1, 10)))
            assert _bits(row.cauchy) == _bits(is_cauchy_wrt(spec, frame, norm, sel, evidence_ks=(1, 10)))


#: distinct vectors a table profiles per kind, traces and evidence together
#: (the six evidence vectors are x_k - limit, x_k and x_{2k} - x_k at k = 1
#: and 10, the limit is x): constant, the zero offset and x; convergent
#: power, the zero offset, the bound's two terms and six distinct evidence
#: vectors; oscillating, +-c v (the oscillation, the two signed offsets and
#: the offsets at k = 1 and 10), x +- c v (the bound's terms and the terms),
#: x_2 - x_1, and the zero gap x_20 - x_10; divergent linear, v (also x_1
#: and x_2 - x_1), 10 v (also x_20 - x_10), the limit and the two offsets
DISTINCT_PROFILES = {"constant": 2, "convergent_power": 9, "oscillating": 6, "divergent_linear": 5}
#: of those, the ones the conclusions read, so the call profiles them: the
#: traces (constant and convergent power, the zero offset; oscillating,
#: +-c v; divergent linear, v and the limit)
CALL_TIME_PROFILES = {"constant": 1, "convergent_power": 1, "oscillating": 2, "divergent_linear": 2}
#: then the bound's terms, profiled on the first read of a `bound`
#: (constant, x; convergent power, x and v; oscillating, x +- c v; a
#: divergent sequence is never BOUNDED with a term). The rest are profiled
#: on the first read of the evidence.
BOUND_PROFILES = {"constant": 1, "convergent_power": 2, "oscillating": 2, "divergent_linear": 0}


def _spec(kind, rng, d):
    # entries are multiples of 2**-10 and the swing is 3/4, so x +- c v and
    # (x +- c v) - x are exact, and which vectors coincide does not hinge on
    # rounding
    x, v = np.round(rng.uniform(-1.0, 1.0, (2, d)) * 1024) / 1024
    return {
        "constant": lambda: constant(x),
        "convergent_power": lambda: convergent_power(x, v, coefficient=1.5, exponent=0.7),
        "oscillating": lambda: oscillating(x, v, coefficient=0.75),
        "divergent_linear": lambda: divergent_linear(v),
    }[kind](), x


@pytest.mark.parametrize("kind", sorted(DISTINCT_PROFILES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_table_calls_the_evaluator_once_per_profile_column(n, kind):
    # every row reads the same profiles, one per distinct vector, so the
    # count is linear in n; one set of profiles per row would make it n
    # times as large, and one profile per vector 8, 9, 11 or 8 per column
    rng = np.random.default_rng(n)
    cfg = SpaceConfig(dim=n + 1, arity=n)
    frame = random_frame(cfg, rng)
    norm, calls = _counting_norm(cfg)
    spec, limit = _spec(kind, rng, n + 1)
    table = equivalence_matrix(spec, frame, norm, limit)
    assert len(calls) == n * CALL_TIME_PROFILES[kind]
    for row in table.rows:
        for verdict in (row.convergence, row.boundedness, row.cauchy):
            verdict.bound
    assert len(calls) == n * (CALL_TIME_PROFILES[kind] + BOUND_PROFILES[kind])
    for row in table.rows:
        for verdict in (row.convergence, row.boundedness, row.cauchy):
            verdict.evidence
    assert len(calls) == n * DISTINCT_PROFILES[kind]
    assert set(calls) == {n}


def _overflowing_specs():
    e1 = np.zeros(3)
    e1[0] = 1e308
    e3 = np.zeros(3)
    e3[2] = 1e308
    base = np.array([0.5, -0.25, 1.0])
    return [
        ("linear-e1", divergent_linear(e1)),
        ("linear-e3", divergent_linear(e3)),
        ("power-e1", convergent_power(base, e1, coefficient=1e10)),
        ("power-e3", convergent_power(base, e3, coefficient=1e10)),
    ]


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("spec", [s for _, s in _overflowing_specs()], ids=[name for name, _ in _overflowing_specs()])
def test_overflowing_terms_are_named_non_finite(spec, injected):
    # the spec's vectors are finite; its terms or their differences overflow
    cfg = SpaceConfig(dim=3, arity=2)
    frame = random_frame(cfg, np.random.default_rng(5))
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    limit = np.zeros(3)
    sel = full_selection(2, 1)
    calls = [
        lambda: equivalence_matrix(spec, frame, norm, limit),
        lambda: converges_wrt(spec, frame, norm, sel, limit),
        lambda: is_bounded_wrt(spec, frame, norm, sel),
        lambda: is_cauchy_wrt(spec, frame, norm, sel),
    ]
    # the typed error comes first: numpy must not warn about inf or inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="non-finite coordinates"):
                call()


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize(
    "spec",
    [
        oscillating(np.zeros(3), np.array([1e308, 0.0, 0.0]), coefficient=1e10),
        oscillating(np.array([1e308, 0.0, 0.0]), np.array([1e308, 0.0, 0.0])),
    ],
    ids=["coefficient-overflows", "center-plus-swing-overflows"],
)
def test_overflowing_oscillations_are_named_non_finite(spec, injected):
    # c v overflows in the first spec; x + c v (and the limit offset, the
    # terms and the bounds built from it) in the second
    cfg = SpaceConfig(dim=3, arity=2)
    frame = random_frame(cfg, np.random.default_rng(5))
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    limit = np.zeros(3)
    sel = full_selection(2, 1)
    calls = [
        lambda: AnalyticTraces(spec, frame, norm, limit),
        lambda: converges_wrt(spec, frame, norm, sel, limit),
        lambda: is_cauchy_wrt(spec, frame, norm, sel),
        lambda: is_bounded_wrt(spec, frame, norm, sel),
        lambda: equivalence_matrix(spec, frame, norm, limit),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="non-finite coordinates"):
                call()


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_an_overflowing_bound_term_is_named_by_the_call(injected):
    # x - c v = 0 and c v are finite, x + c v is not: at odd k alone the
    # terms are x - c v, so only the bound's terms hold the overflow, and
    # the call names it, not the first read of the bound; a table samples
    # x_10 = x + c v as a term
    cfg = SpaceConfig(dim=3, arity=2)
    frame = random_frame(cfg, np.random.default_rng(5))
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    x = np.array([1e308, 0.0, 0.0])
    spec = oscillating(x, x)
    sel = full_selection(2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: is_bounded_wrt(spec, frame, norm, sel, evidence_ks=(1, 3)),
            lambda: equivalence_matrix(spec, frame, norm, x),
            lambda: AnalyticTraces(spec, frame, norm).bounded_on(IndexSet([1])),
        ):
            with pytest.raises(ValueError, match="non-finite coordinates"):
                call()
        # a verdict that reads no bound does not meet it
        verdict = converges_wrt(spec, frame, norm, sel, x, evidence_ks=(1,))
    assert verdict.conclusion.value == "diverges"


def test_a_table_computes_its_vectors_under_one_guard(monkeypatch):
    entered = []
    errstate = np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    cfg = SpaceConfig(dim=4, arity=3)
    frame = random_frame(cfg, np.random.default_rng(2))
    x = np.array([0.5, -0.25, 1.0, 0.125])
    equivalence_matrix(oscillating(x, np.ones(4), coefficient=0.75), frame, standard_nnorm(cfg), x)
    assert len(entered) == 1


@pytest.mark.parametrize("kind", sorted(DISTINCT_PROFILES))
def test_traces_made_without_a_limit_name_it_when_asked_for_one(kind):
    # trace_limit_zero read a trace that only a limit makes, and raised
    # AttributeError
    rng = np.random.default_rng(7)
    cfg = SpaceConfig(dim=4, arity=3)
    frame = random_frame(cfg, rng)
    spec, limit = _spec(kind, rng, 4)
    traces = AnalyticTraces(spec, frame, standard_nnorm(cfg))
    with pytest.raises(ValueError, match="needs traces made with a candidate limit"):
        traces.trace_limit_zero(IndexSet([1]))
    with_limit = AnalyticTraces(spec, frame, standard_nnorm(cfg), limit)
    for s in full_selection(3, 2).subsets:
        assert traces.cauchy_on(s) == with_limit.cauchy_on(s)
        assert traces.bounded_on(s) == with_limit.bounded_on(s)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_an_oscillation_of_no_swing_is_profiled_as_its_center(n):
    # c v = 0 decides nothing, so the table profiles only the center's
    # offset, and its bounds the center, as a constant's table does
    rng = np.random.default_rng(n)
    cfg = SpaceConfig(dim=n + 1, arity=n)
    frame = random_frame(cfg, rng)
    x, v, limit = rng.uniform(-1.0, 1.0, (3, n + 1))
    tables, counts = [], []
    for spec in (oscillating(x, v, coefficient=0.0), constant(x)):
        norm, calls = _counting_norm(cfg)
        tables.append(equivalence_matrix(spec, frame, norm, limit))
        assert len(calls) == n * CALL_TIME_PROFILES["constant"]
        counts.append(calls)
    still, fixed = tables
    for which in ("convergence", "boundedness", "cauchy"):
        assert still.conclusions(which) == fixed.conclusions(which)
    assert [row.boundedness.bound for row in still.rows] == [row.boundedness.bound for row in fixed.rows]
    for calls in counts:
        assert len(calls) == n * (CALL_TIME_PROFILES["constant"] + BOUND_PROFILES["constant"])
