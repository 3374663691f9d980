"""An analytic call builds its evidence rows (x_k - limit, x_k and x_{2k} -
x_k) on the first read of a verdict's `evidence` when it can prove that no
vector of theirs can overflow, and at the call otherwise: either way the
rows' bytes are those of `eval_sequence`, the call raises what the eager
build raises, and a write to the caller's arrays after the call changes
nothing a verdict reads. `repr` of a verdict whose deferred read raises
shows the error instead of raising it."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from nnormkit import topology
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import standard_nnorm
from nnormkit.quotient import Frame, ScaleOutOfRange, random_frame
from nnormkit.topology import (
    AnalyticTraces,
    Verdict,
    constant,
    convergent_power,
    converges_wrt,
    custom_sequence,
    divergent_linear,
    equivalence_matrix,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    oscillating,
)

KINDS = ["constant", "convergent_power", "oscillating", "divergent_linear"]
ROWS = ("_offset", "_term", "_doubling_gap")


def _make(kind, x, v):
    return {
        "constant": lambda: constant(x),
        "convergent_power": lambda: convergent_power(x, v, coefficient=1.5, exponent=0.7),
        "oscillating": lambda: oscillating(x, v, coefficient=0.75),
        "divergent_linear": lambda: divergent_linear(v),
    }[kind]()


def _frame(n=3, d=5, seed=4):
    cfg = SpaceConfig(dim=d, arity=n)
    return random_frame(cfg, np.random.default_rng(seed)), standard_nnorm(cfg)


def _hex(verdict) -> tuple:
    return tuple((p.k, p.subset.indices, float(p.value).hex()) for p in verdict.evidence)


def _calls(frame, norm, spec, limit):
    """Every analytic verdict of a spec: a table's, and the public calls'
    on a selection of class 2."""
    sel = full_selection(frame.n, 2)
    table = equivalence_matrix(spec, frame, norm, limit)
    return [v for row in table.rows for v in (row.convergence, row.boundedness, row.cauchy)] + [
        converges_wrt(spec, frame, norm, sel, limit),
        is_bounded_wrt(spec, frame, norm, sel),
        is_cauchy_wrt(spec, frame, norm, sel),
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_writes_to_the_callers_arrays_change_no_verdict(kind):
    # the spec keeps read-only copies of x and v, the call one of the
    # limit; rows that wait for their first read compute from those copies
    frame, norm = _frame()
    rng = np.random.default_rng(11)
    x, v, limit = rng.uniform(-1.0, 1.0, (3, 5))
    expected = [(_hex(verdict), verdict.limit) for verdict in _calls(frame, norm, _make(kind, x.copy(), v.copy()), limit.copy())]
    spec = _make(kind, x, v)
    verdicts = _calls(frame, norm, spec, limit)
    for array in (x, v, limit):
        array[:] = 100.0
    for verdict, (evidence, kept) in zip(verdicts, expected):
        assert _hex(verdict) == evidence
        if kept is None:
            assert verdict.limit is None
        else:
            assert verdict.limit.tobytes() == kept.tobytes()
            assert verdict.limit is not limit and not verdict.limit.flags.writeable


def test_a_spec_keeps_read_only_copies():
    x, v = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -1.0])
    spec = convergent_power(x, v)
    assert spec.base is not x and spec.direction is not v
    assert not spec.base.flags.writeable and not spec.direction.flags.writeable
    table = custom_sequence([(1, x), (2, v)])
    assert all(u is not w and not u.flags.writeable for (_, u), w in zip(table.table, (x, v)))
    x[:] = v[:] = 7.0
    assert spec.base.tolist() == [1.0, 2.0, 3.0] and table.table[1][1].tolist() == [0.5, 0.0, -1.0]
    # a term is the caller's to write, as before
    term = eval_sequence(constant([1.0, 2.0]), 3)
    term[0] = 9.0
    assert term.flags.writeable


def _counting_rows(monkeypatch) -> dict:
    counts = dict.fromkeys(ROWS, 0)
    for name in ROWS:
        build = getattr(topology, name)

        def counted(spec, limit, k, name=name, build=build):
            counts[name] += 1
            return build(spec, limit, k)

        monkeypatch.setattr(topology, name, counted)
    return counts


@pytest.mark.parametrize("kind", KINDS)
def test_a_table_builds_each_row_once_on_first_read(monkeypatch, kind):
    frame, norm = _frame(n=4, d=6)
    rng = np.random.default_rng(3)
    x, v = rng.uniform(-1.0, 1.0, (2, 6))
    counts = _counting_rows(monkeypatch)
    table = equivalence_matrix(_make(kind, x, v), frame, norm, x)
    table.agrees()
    assert counts == dict.fromkeys(ROWS, 0)
    for row in table.rows:
        row.convergence.evidence
    # the offsets, at k = 1 and 10, for all four rows at once
    assert counts == {"_offset": 2, "_term": 0, "_doubling_gap": 0}
    for row in table.rows:
        for verdict in (row.convergence, row.boundedness, row.cauchy):
            verdict.evidence
    assert counts == dict.fromkeys(ROWS, 2)


def test_rows_that_might_overflow_are_built_and_checked_at_the_call(monkeypatch):
    # B = 2 (|x| + |c| |v|) = 2.25e307 > 2**1020, though no vector overflows
    frame, norm = _frame(n=2, d=3)
    x = np.array([5e306, 0.0, 0.0])
    counts = _counting_rows(monkeypatch)
    table = equivalence_matrix(oscillating(x, np.array([0.0, 1e306, 0.0]), coefficient=0.75), frame, norm, x)
    assert counts == dict.fromkeys(ROWS, 2)
    assert table.conclusions("boundedness")[0].value == "bounded"


def _oracle_rows(spec, limit, ks) -> list:
    """The rows' (k, bytes) pairs from `eval_sequence`, minus the limit for
    the offsets."""
    with np.errstate(all="ignore"):
        return [
            [(k, (eval_sequence(spec, k) - limit).tobytes()) for k in ks],
            [(k, eval_sequence(spec, k).tobytes()) for k in ks],
            [(k, (eval_sequence(spec, 2 * k) - eval_sequence(spec, k)).tobytes()) for k in ks],
        ]


def _outcome(spec, frame, norm, limit, ks):
    """The call's error, as (type, message), or its rows, each read once,
    and whether they waited for that read."""
    rows = [(ks, getattr(topology, name)) for name in ROWS]
    try:
        traces = AnalyticTraces(spec, frame, norm, limit, rows)
    except (ValueError, OverflowError) as error:
        return (type(error), str(error)), None
    waited = [row._pairs is None for row in traces.evidence]
    return [list(row) for row in traces.evidence], waited


def _bound(kind, x, v, limit, k_max) -> float:
    """2 (|x| + |c| |v| K + |limit|), in floats."""

    def top(u):
        return max(abs(float(t)) for t in u)

    c, reach = {"constant": (0, 0), "convergent_power": (1.5, 1), "oscillating": (0.75, 1), "divergent_linear": (1, 2 * k_max)}[kind]
    return 2 * ((0 if kind == "divergent_linear" else top(x)) + c * top(v) * reach + top(limit))


@pytest.mark.parametrize("k_max", [10, 2**40, 2**40 + 1], ids=["k10", "k2e40", "k2e40+1"])
@pytest.mark.parametrize("scaled", ["x", "v", "limit", "all"])
@pytest.mark.parametrize("scale", [1e150, 1e290, 1e300, 1e307])
@pytest.mark.parametrize("kind", KINDS)
def test_deferred_rows_equal_the_eager_build_at_the_edge(monkeypatch, kind, scale, scaled, k_max):
    frame, norm = _frame(n=2, d=3, seed=5)
    base = {"x": np.array([0.5, -0.25, 1.0]), "v": np.array([-1.0, 0.75, 0.5]), "limit": np.array([0.25, 1.0, -0.5])}
    for name in base:
        if scaled in (name, "all"):
            base[name] = base[name] * scale
    x, v, limit = base["x"], base["v"], base["limit"]
    spec, ks = _make(kind, x, v), (1, 10, k_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, waited = _outcome(spec, frame, norm, limit, ks)
        # the parent's path: every row built and checked at the call
        monkeypatch.setattr(topology, "_DEFER_BELOW", -math.inf)
        eager, eager_waited = _outcome(spec, frame, norm, limit, ks)
    assert got == eager
    if waited is None:
        # a non-finite vector or an out-of-range scale, named by the call
        assert issubclass(got[0], ValueError)
        return
    assert eager_waited == [False] * 3
    assert got == _oracle_rows(spec, limit, ks)
    # the rows wait exactly when the bound clears
    assert waited == [k_max <= 2**40 and _bound(kind, x, v, limit, k_max) <= 2.0**1020] * 3


def test_unit_scale_specs_defer_their_rows():
    # unit-scale specs, limits and ks up to 100 all clear the bound
    frame, norm = _frame()
    rng = np.random.default_rng(2)
    for kind in KINDS:
        x, v = rng.uniform(-2.0, 2.0, (2, 5))
        traces = AnalyticTraces(_make(kind, x, v), frame, norm, x, [((1, 2, 5, 10, 100), topology._offset)])
        assert traces.evidence[0]._pairs is None


def test_a_foreign_row_is_built_and_checked_at_the_call():
    # only the verdicts' own rows are bounded by the spec; any other is
    # built at the call, where an infinity in it is named
    frame, norm = _frame(n=2, d=3)
    spec = constant(np.ones(3))
    with pytest.raises(ValueError, match="non-finite coordinates"):
        AnalyticTraces(spec, frame, norm, np.ones(3), [((1,), lambda spec, limit, k: np.full(3, np.inf))])


def _out_of_range():
    # a BOUNDED table whose bound cannot be read: x = 5e307 e_3 is finite
    # and its offset from itself zero, but its scale against this frame is
    # 5e308
    cfg = SpaceConfig(dim=3, arity=2)
    frame = Frame(space=cfg, vectors=10.0 * np.eye(3)[:2])
    x = 5e307 * np.eye(3)[2]
    return equivalence_matrix(constant(x), frame, standard_nnorm(cfg), x)


def test_repr_shows_an_error_its_deferred_read_raises():
    table = _out_of_range()
    verdict = table.rows[0].boundedness
    assert verdict.conclusion.value == "bounded"
    text = repr(verdict)
    assert text.startswith("Verdict(conclusion=<Conclusion.BOUNDED: 'bounded'>, method=<Method.ANALYTIC: 'analytic'>, limit=None, bound=<raises ScaleOutOfRange: Hadamard scale")
    assert ", evidence=<raises ScaleOutOfRange: " in text and text.endswith(", window=None)")
    assert "<raises ScaleOutOfRange" in repr(table)
    # nothing was stored, so the fields still raise on their own read
    with pytest.raises(ScaleOutOfRange):
        verdict.bound
    # the zero offsets and gaps of the other questions read as ever
    assert "<raises" not in repr(table.rows[0].convergence)


def test_equality_copy_and_pickle_still_raise_what_the_read_raises():
    verdict = _out_of_range().rows[0].boundedness
    for act in (lambda: verdict == verdict, lambda: copy.copy(verdict), lambda: copy.deepcopy(verdict), lambda: pickle.dumps(verdict)):
        with pytest.raises(ScaleOutOfRange):
            act()


def test_equal_limits_compare_equal_across_calls():
    # each call keeps its own copy of the limit, so equality reads values
    frame, norm = _frame()
    x = np.linspace(-1.0, 1.0, 5)
    sel = full_selection(3, 1)
    first, second = (converges_wrt(constant(x), frame, norm, sel, x) for _ in range(2))
    assert first.limit is not second.limit
    assert first == second
    moved = Verdict(first.conclusion, first.method, limit=x + 1.0, evidence=first.evidence)
    assert first != moved and moved == Verdict(first.conclusion, first.method, limit=x + 1.0, evidence=first.evidence)
