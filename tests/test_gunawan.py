"""Gunawan's l^p n-norm as an injected evaluator: a correct n-norm that no
Gram matrix gives, so the axiom checkers must pass it through the injected
paths alone."""

import math

import numpy as np
import pytest
from oracles import gunawan_norm

from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, check_axioms, standard_norm
from nnormkit.quotient import IndexSet, quotient_norm_axioms, random_frame


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
