"""The union rule: a closed-form verdict reads its conclusion once, over its
selection's columns (the sorted union of its subsets), and its bound is
Python's max of the per-subset bounds, in subset order.

Every public analytic verdict must reach what the per-subset reading
(`oracles.per_subset_verdicts`) reaches, on covering and non-covering
selections, single subsets included, with the bound equal bit for bit. An
evaluator that is NaN on one column pins the order of that max."""

import math

import numpy as np
import pytest

from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import class_collection, random_frame
from nnormkit.topology import (
    AnalyticTraces,
    Conclusion,
    NormSelection,
    constant,
    convergent_power,
    converges_wrt,
    covering_check,
    divergent_linear,
    equivalence_matrix,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    oscillating,
)
from oracles import per_subset_verdicts

#: the column on which the "nan-column" evaluator returns NaN
NAN_COLUMN = 2


def _setup(n: int, norm_kind: str, seed: int):
    rng = np.random.default_rng(seed)
    cfg = SpaceConfig(dim=n + 2, arity=n)
    frame = random_frame(cfg, rng)
    if norm_kind == "standard":
        return rng, frame, standard_nnorm(cfg)
    dropped = frame.vectors[NAN_COLUMN - 1]

    def evaluator(vs):
        # column j evaluates (u, Y without y_j)
        if norm_kind == "nan-column" and not any(np.array_equal(v, dropped) for v in vs[1:]):
            return math.nan
        return standard_norm(cfg, vs)

    return rng, frame, NNorm(cfg, "injected", evaluator)


def _in_span(rng, frame) -> np.ndarray:
    """A combination of a random nonempty set T of frame rows: it lies in
    the kept span of every column outside T, so per-index flags differ
    from column to column."""
    n = frame.n
    coeffs = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.5)
    coeffs[rng.integers(n)] = 1.0
    return coeffs @ frame.vectors


def _specs(rng, frame):
    """(spec, candidate limit) for each closed-form kind against its limit
    and a wrong one, off by a vector in part of the frame's span; a
    divergent sequence's "limit" is 0, which it reaches over the columns
    whose kept span holds its direction."""
    d = frame.dim
    x, v, wrong = rng.uniform(-1.0, 1.0, d), _in_span(rng, frame), _in_span(rng, frame)
    out = []
    for spec, limit in (
        (constant(x), x),
        (convergent_power(x, v, coefficient=1.5, exponent=0.7), x),
        (oscillating(x, v, coefficient=0.75), x),
        (divergent_linear(v), np.zeros(d)),
    ):
        out += [(spec, limit), (spec, limit + wrong)]
    return out + [(divergent_linear(rng.uniform(-1.0, 1.0, d)), np.zeros(d))]


def _selections(rng, n: int) -> list[NormSelection]:
    """Per subset size m: a random single subset, a random family in random
    order, the whole collection in reverse, and every subset that misses
    index n (which does not cover), where there is one."""
    out = []
    for m in range(1, n + 1):
        members = class_collection(n, m).members
        picks = rng.permutation(len(members))
        families = [
            [members[picks[0]]],
            [members[i] for i in picks[: rng.integers(1, len(members) + 1)]],
            members[::-1],
            [s for s in members if n not in s.indices],
        ]
        out += [NormSelection(n=n, subsets=tuple(family)) for family in families if family]
    return out


def _hex(bound):
    return None if bound is None else float(bound).hex()


@pytest.mark.parametrize("norm_kind", ["standard", "injected", "nan-column"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_public_verdicts_equal_the_per_subset_reading(n, norm_kind):
    rng, frame, norm = _setup(n, norm_kind, seed=100 * n + len(norm_kind))
    selections = _selections(rng, n)
    assert {covering_check(sel) for sel in selections} == {True, False}
    assert any(len(sel.subsets) == 1 for sel in selections)
    seen = set()
    for spec, limit in _specs(rng, frame):
        traces = AnalyticTraces(spec, frame, norm, limit)
        for sel in selections:
            converges, cauchy, bounded, bound = per_subset_verdicts(traces, sel.subsets)
            seen.update({("converges", converges), ("cauchy", cauchy), ("bounded", bounded)})
            verdict = converges_wrt(spec, frame, norm, sel, limit)
            assert verdict.conclusion is (Conclusion.CONVERGES if converges else Conclusion.DIVERGES)
            verdict = is_cauchy_wrt(spec, frame, norm, sel)
            assert verdict.conclusion is (Conclusion.CAUCHY if cauchy else Conclusion.NOT_CAUCHY)
            verdict = is_bounded_wrt(spec, frame, norm, sel)
            assert verdict.conclusion is (Conclusion.BOUNDED if bounded else Conclusion.UNBOUNDED)
            assert _hex(verdict.bound) == _hex(bound)
    # each question gets both answers somewhere, so no answer is read off a
    # constant
    assert seen == {(q, a) for q in ("converges", "cauchy", "bounded") for a in (True, False)}


@pytest.mark.parametrize("norm_kind", ["standard", "injected"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_pending_bound_reads_the_per_subset_max(n, norm_kind):
    # a BOUNDED verdict, public or a table row, keeps its bound unread, and
    # its first read gives Python's max of `bounded_on` over its subsets
    rng, frame, norm = _setup(n, norm_kind, seed=7 * n + len(norm_kind))
    selections = _selections(rng, n)
    read = 0
    for spec, limit in _specs(rng, frame):
        traces = AnalyticTraces(spec, frame, norm, limit)
        verdicts = [(is_bounded_wrt(spec, frame, norm, sel), sel) for sel in selections]
        verdicts += [(row.boundedness, full_selection(n, row.m)) for row in equivalence_matrix(spec, frame, norm, limit).rows]
        for verdict, sel in verdicts:
            bounds = [traces.bounded_on(s) for s in sel.subsets]
            if verdict.conclusion is Conclusion.UNBOUNDED:
                assert not all(ok for ok, _ in bounds) and verdict.bound is None
                continue
            assert "bound" not in vars(verdict)
            assert _hex(verdict.bound) == _hex(max(b for _, b in bounds))
            read += 1
    assert read


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_nan_column_ranks_by_subset_order_in_the_bound(n):
    # Python's max keeps a NaN it starts from and skips one it meets later,
    # so the bound is NaN exactly when the first subset holds the NaN column
    # (np.max, np.nanmax or a max in another order would each differ)
    rng, frame, norm = _setup(n, "nan-column", seed=n)
    x, v = rng.uniform(-1.0, 1.0, frame.dim), _in_span(rng, frame)
    specs = (constant(x), convergent_power(x, v, coefficient=1.5, exponent=0.7), oscillating(x, v, coefficient=0.75))
    selections = _selections(rng, n)
    firsts = {NAN_COLUMN in sel.subsets[0].indices for sel in selections}
    assert firsts == {True, False}
    for spec in specs:
        for sel in selections:
            bound = is_bounded_wrt(spec, frame, norm, sel).bound
            assert math.isnan(bound) is (NAN_COLUMN in sel.subsets[0].indices)
