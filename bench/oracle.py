"""High-precision recomputation of returned quotient-norm values.

A returned evidence value for subset s and vector w is the sum over j in s
of sqrt(det Gram(w, Y without y_j)). The oracle evaluates the same sum from
the same double-precision inputs in mpmath at 50 digits. Error is relative
to the exact value, or relative to the tuples' Hadamard scale where the
exact value is below the package's zero threshold (a value there is only
meaningful up to that scale).
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 50
TINY = 1e-300


def _exact_terms(frame, w, subset):
    """(exact class-m value, Hadamard scale) of w against frame for subset,
    under the identity metric that the value-returning workloads use."""
    if frame.space.metric is not None:
        raise ValueError("the oracle covers the identity metric only")
    frame_rows = [[mpmath.mpf(x) for x in r] for r in frame.vectors.tolist()]
    w_row = [mpmath.mpf(x) for x in w.tolist()]

    def dot(a, b):
        return mpmath.fsum(x * y for x, y in zip(a, b))

    value = mpmath.mpf(0)
    scale = mpmath.mpf(0)
    for j in subset:
        rows = [w_row] + [r for i, r in enumerate(frame_rows, start=1) if i != j]
        gram = mpmath.matrix([[dot(a, b) for b in rows] for a in rows])
        value += mpmath.sqrt(max(mpmath.det(gram), 0))
        scale += mpmath.fprod(mpmath.sqrt(dot(r, r)) for r in rows)
    return value, scale


def relative_errors(points, zero_rel: float) -> list[float]:
    """Error of each (frame, w, subset, computed value) point."""
    errors = []
    with mpmath.workdps(DIGITS):
        for frame, w, subset, computed in points:
            exact, scale = _exact_terms(frame, w, subset)
            gap = abs(mpmath.mpf(computed) - exact)
            base = exact if exact > zero_rel * scale else scale
            errors.append(float(gap / base) if base > 0 else float(gap))
    return errors


def worst_log10(errors) -> float:
    return math.log10(max(max(errors), TINY))
