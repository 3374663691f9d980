"""Gunawan's l^p n-norm as an injected evaluator: a correct n-norm that no
Gram matrix gives, so the axiom checkers and the equivalence tables must
pass it through the injected paths alone."""

import math

import numpy as np
import pytest
from oracles import gunawan_norm

from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, check_axioms, standard_norm
from nnormkit.quotient import IndexSet, quotient_norm_axioms, quotient_profile, random_frame
from nnormkit.topology import Conclusion, constant, convergent_power, divergent_linear, equivalence_matrix, oscillating

C = Conclusion
# the full-collection conclusions of each closed-form case, as ordinary
# convergence in R^d states them whatever the frame and the n-norm
CONVERGENT = {"convergence": C.CONVERGES, "boundedness": C.BOUNDED, "cauchy": C.CAUCHY}
WRONG_LIMIT = {"convergence": C.DIVERGES, "boundedness": C.BOUNDED, "cauchy": C.CAUCHY}
DIVERGENT = {"convergence": C.DIVERGES, "boundedness": C.UNBOUNDED, "cauchy": C.NOT_CAUCHY}
OSCILLATING = {"convergence": C.DIVERGES, "boundedness": C.BOUNDED, "cauchy": C.NOT_CAUCHY}


@pytest.mark.parametrize("n, d", [(2, 3), (3, 5), (4, 6), (3, 3)])
def test_p2_is_the_standard_norm(n, d):
    # Cauchy-Binet: the squared minors of a tuple sum to its Gram determinant
    cfg = SpaceConfig(dim=d, arity=n)
    rng = np.random.default_rng(10 * n + d)
    for _ in range(200):
        vs = rng.uniform(-1.0, 1.0, (n, d))
        assert gunawan_norm(cfg, vs, 2) == pytest.approx(standard_norm(cfg, vs), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1, 3, math.inf], ids=["p1", "p3", "pinf"])
@pytest.mark.parametrize("n, d", [(2, 4), (3, 5)])
def test_every_axiom_check_passes(n, d, p):
    cfg = SpaceConfig(dim=d, arity=n)
    norm = NNorm(cfg, f"gunawan-{p}", lambda vs: gunawan_norm(cfg, vs, p))
    assert all(report.passed for report in check_axioms(norm, trials=100, seed=20260808))
    frame = random_frame(cfg, np.random.default_rng(1))
    reports = quotient_norm_axioms(frame, norm, IndexSet(range(1, n + 1)), trials=6, seed=20260808)
    assert all(report.passed for report in reports)


def _closed_form_cases(rng, frame):
    """Every closed-form kind, with right and wrong candidate limits, its
    direction (and a wrong limit's offset) off the frame's span and then
    in it, with every frame coefficient away from zero."""
    d, n = frame.dim, frame.n

    def direction(in_span):
        if in_span:
            v = frame.vectors.T @ (rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n))
        else:
            v = rng.uniform(-1.0, 1.0, d)
            v[int(rng.integers(0, d))] += 1.0
        return v / np.linalg.norm(v)

    cases = []
    for in_span in (False, True):
        x, v, c = rng.uniform(-1.0, 1.0, d), direction(in_span), float(rng.uniform(0.25, 2.0))
        power = convergent_power(x, v, coefficient=-c, exponent=float(rng.uniform(0.5, 2.0)))
        cases += [
            (power, x, CONVERGENT),
            (power, x + direction(in_span), WRONG_LIMIT),
            (divergent_linear(v), np.zeros(d), DIVERGENT),
            (oscillating(x, v, coefficient=c), x, OSCILLATING),
            (constant(x), x, CONVERGENT),
            (constant(x), x + direction(in_span), WRONG_LIMIT),
        ]
    return cases


@pytest.mark.parametrize("p", [1, 3, math.inf], ids=["p1", "p3", "pinf"])
@pytest.mark.parametrize("n, d", [(2, 4), (3, 5)])
def test_equivalence_tables_state_the_closed_form_conclusions(n, d, p):
    cfg = SpaceConfig(dim=d, arity=n)
    norm = NNorm(cfg, f"gunawan-{p}", lambda vs: gunawan_norm(cfg, vs, p))
    rng = np.random.default_rng(100 * n + d)
    frame = random_frame(cfg, rng)
    for spec, limit, expected in _closed_form_cases(rng, frame):
        table = equivalence_matrix(spec, frame, norm, limit)
        assert [row.m for row in table.rows] == list(range(1, n + 1))
        assert table.agrees(), spec.kind
        for which, conclusion in expected.items():
            assert table.conclusions(which) == [conclusion] * n, (spec.kind, which)
        class1 = {(q.k, q.subset.indices[0]): q.value for q in table.rows[0].cauchy.evidence}
        for row in table.rows:
            bound = row.boundedness.bound
            assert (bound is None) if expected is DIVERGENT else 0.0 < bound < math.inf
            # a class-m value is the sum of the class-1 values over its subset
            for q in row.cauchy.evidence:
                assert q.value == pytest.approx(math.fsum(class1[q.k, j] for j in q.subset.indices), rel=1e-14)


@pytest.mark.parametrize("p", [1, 3, math.inf], ids=["p1", "p3", "pinf"])
@pytest.mark.parametrize("n, d", [(2, 4), (3, 8)])
def test_the_generic_zero_flag_reads_the_gram_slope(n, d, p):
    # an injected norm's class-1 zero flag is value <= slope_j * |u|, with the
    # standard norm's slope; for p != 2 the value is the standard one times a
    # ratio within C(d, n)**+-|1/p - 1/2|, so the flag flips at a u whose
    # distance from the kept span is off by that ratio
    cfg = SpaceConfig(dim=d, arity=n)
    norm = NNorm(cfg, f"gunawan-{p}", lambda vs: gunawan_norm(cfg, vs, p))
    rng = np.random.default_rng(1000 * n + d)
    frame = random_frame(cfg, rng)
    slopes = frame.geometry(cfg)._zero_slope
    factor = math.comb(d, n) ** abs(1.0 / p - 0.5)
    for j in range(1, n + 1):
        others = np.delete(frame.vectors, j - 1, axis=0)
        inside = rng.uniform(0.5, 1.0, n - 1) @ others
        # a unit vector off the span of the other rows
        off = np.linalg.qr(others.T, mode="complete")[0][:, -1]
        threshold = slopes[j - 1] * np.linalg.norm(inside) / standard_norm(cfg, [off, *others])
        flags = []
        for step in range(-6, 7):
            u = inside + threshold * 2.0**step * off
            profile = quotient_profile(frame, norm, u, [j])
            value = profile.values[j - 1]
            assert profile.zero[j - 1] == (value <= slopes[j - 1] * np.linalg.norm(u))
            assert 1.0 / factor <= value / standard_norm(cfg, [u, *others]) <= factor
            flags.append(bool(profile.zero[j - 1]))
        assert flags[0] and not flags[-1]
