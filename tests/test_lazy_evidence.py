"""A verdict builds its evidence on first read, and an analytic BOUNDED
verdict its bound: the trace points equal, as float.hex, the class-m norms
of the sampled vectors; none is built until a caller reads `evidence`; an
analytic evidence vector or bound term that no conclusion reads is
profiled only then, once per call; the tuple and the bound are built once;
and equality, repr, pickle, copy, replace and asdict of an unread verdict
see what a verdict given the same values gives."""

import copy
import dataclasses
import gc
import pickle
import types

import numpy as np
import pytest

from nnormkit import topology
from nnormkit.linalg import SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import Frame, IndexSet, Profile, ScaleOutOfRange, quotient_profile, random_frame
from nnormkit.topology import (
    Conclusion,
    Method,
    TracePoint,
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
from test_equivalence import BOUND_PROFILES, CALL_TIME_PROFILES, DISTINCT_PROFILES, _counting_norm
from test_equivalence import _spec as _exact_spec

SHAPES = [(2, 4), (3, 5), (5, 7)]
KINDS = ["constant", "convergent_power", "oscillating", "divergent_linear"]


def _setup(n, d, injected, seed=0):
    rng = np.random.default_rng(seed + 100 * n + d)
    cfg = SpaceConfig(dim=d, arity=n)
    frame = random_frame(cfg, rng)
    norm = NNorm(cfg, "injected", lambda vs: standard_norm(cfg, vs)) if injected else standard_nnorm(cfg)
    return rng, frame, norm


def _spec(kind, rng, d):
    """(spec, candidate limit) of a kind; the limit is the base point, and
    the origin for a divergent sequence."""
    x, v = rng.uniform(-1.0, 1.0, (2, d))
    return {
        "constant": (constant(x), x),
        "convergent_power": (convergent_power(x, v, coefficient=1.5, exponent=0.7), x),
        "oscillating": (oscillating(x, v, coefficient=0.75), x),
        "divergent_linear": (divergent_linear(v), np.zeros(d)),
    }[kind]


def _hex(points) -> list:
    return [(p.k, p.subset.indices, float(p.value).hex()) for p in points]


def _oracle(frame, norm, vector_at, selection, ks=(1, 10)) -> list:
    """Trace points (k, s, value) from a fresh profile of each vector,
    subset by subset."""
    values = {k: quotient_profile(frame, norm, vector_at(k)) for k in ks}
    return [(k, s.indices, values[k].value(s).hex()) for s in selection.subsets for k in ks]


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, d", SHAPES)
def test_every_row_equals_the_profile_oracle(n, d, kind, injected):
    rng, frame, norm = _setup(n, d, injected)
    spec, limit = _spec(kind, rng, d)
    table = equivalence_matrix(spec, frame, norm, limit)

    def gap(k):
        return eval_sequence(spec, 2 * k) - eval_sequence(spec, k)

    for row in table.rows:
        sel = full_selection(n, row.m)
        assert _hex(row.convergence.evidence) == _oracle(frame, norm, lambda k: eval_sequence(spec, k) - limit, sel)
        assert _hex(row.boundedness.evidence) == _oracle(frame, norm, lambda k: eval_sequence(spec, k), sel)
        assert _hex(row.cauchy.evidence) == _oracle(frame, norm, gap, sel)


def _counting_trace_points(monkeypatch) -> list:
    built = []

    def counted(*fields):
        built.append(fields)
        return TracePoint(*fields)

    monkeypatch.setattr(topology, "TracePoint", counted)
    return built


@pytest.mark.parametrize("kind", KINDS)
def test_a_table_builds_no_trace_point_until_its_evidence_is_read(monkeypatch, kind):
    n, d = 5, 7
    rng, frame, norm = _setup(n, d, injected=False)
    spec, limit = _spec(kind, rng, d)
    built = _counting_trace_points(monkeypatch)
    table = equivalence_matrix(spec, frame, norm, limit)
    # what the benchmark's check reads: the conclusions only
    table.agrees()
    assert built == []
    total = 0
    for row in table.rows:
        for verdict in (row.convergence, row.boundedness, row.cauchy):
            total += len(verdict.evidence)
            assert len(built) == total
    # 2 ks and 3 verdicts per subset of every class: 3 * 2 * (2**5 - 1)
    assert total == 186


def test_the_tuple_is_built_once(monkeypatch):
    rng, frame, norm = _setup(3, 5, injected=False)
    spec, limit = _spec("convergent_power", rng, 5)
    verdict = equivalence_matrix(spec, frame, norm, limit).rows[1].cauchy
    assert "evidence" not in vars(verdict)
    calls = []
    build = topology._trace_points
    monkeypatch.setattr(topology, "_trace_points", lambda *a: calls.append(a) or build(*a))
    first = verdict.evidence
    # stored on the instance, so later reads are plain attribute reads
    assert vars(verdict)["evidence"] is first
    assert "_pending_evidence" not in vars(verdict)
    assert verdict.evidence is first
    assert verdict.evidence is first
    assert len(calls) == 1


def _pairs():
    """(deferred, explicit) per verdict of a table of each kind: the verdict
    with its evidence and bound unread, and the same verdict given the
    evidence tuple and the bound that another table's verdict built."""
    rng, frame, norm = _setup(3, 5, injected=False)
    out = []
    for kind in KINDS:
        spec, limit = _spec(kind, rng, 5)
        for deferred_row, read_row in zip(*(equivalence_matrix(spec, frame, norm, limit).rows for _ in range(2))):
            for which in ("convergence", "boundedness", "cauchy"):
                deferred, read = getattr(deferred_row, which), getattr(read_row, which)
                assert "_pending_evidence" in vars(deferred)
                explicit = Verdict(
                    read.conclusion,
                    read.method,
                    limit=read.limit,
                    bound=read.bound,
                    evidence=tuple(read.evidence),
                    window=read.window,
                )
                out.append((deferred, explicit))
    # each kind's boundedness rows are BOUNDED with a pending bound, but a
    # divergent sequence's
    assert sum("_pending_bound" in vars(deferred) for deferred, _ in out) == 3 * 3
    return out


def _unsourced(verdict) -> bool:
    """Does a verdict hold no pending source?"""
    return not {"_pending_evidence", "_pending_bound"} & vars(verdict).keys()


def _bits(verdict) -> tuple:
    return (
        verdict.conclusion,
        verdict.method,
        verdict.window,
        None if verdict.limit is None else verdict.limit.tobytes(),
        None if verdict.bound is None else float(verdict.bound).hex(),
        tuple(_hex(verdict.evidence)),
    )


def test_equality_and_repr_match_an_explicit_tuple():
    for deferred, explicit in _pairs():
        assert deferred == explicit
    for deferred, explicit in _pairs():
        assert repr(deferred) == repr(explicit)
    for deferred, explicit in _pairs():
        assert explicit == deferred


def test_pickle_carries_the_built_tuple_and_no_profile():
    for deferred, explicit in _pairs():
        blob = pickle.dumps(deferred)
        assert b"Profile" not in blob and b"BoundTerms" not in blob
        # the fields in their order, whichever was read first
        assert blob == pickle.dumps(explicit)
        again = pickle.loads(blob)
        assert _unsourced(again)
        assert _bits(again) == _bits(explicit)
        assert repr(again) == repr(explicit)


def test_copy_replace_and_asdict_match_an_explicit_tuple():
    for deferred, explicit in _pairs():
        shallow = copy.copy(deferred)
        assert _unsourced(shallow)
        assert shallow == explicit
    for deferred, explicit in _pairs():
        assert dataclasses.replace(deferred) == dataclasses.replace(explicit)
        assert dataclasses.replace(deferred, bound=2.5) == dataclasses.replace(explicit, bound=2.5)
    for deferred, explicit in _pairs():
        # an evidence tuple given to replace wins over the source
        assert dataclasses.replace(deferred, evidence=()).evidence == ()
    for deferred, explicit in _pairs():
        assert repr(dataclasses.asdict(deferred)) == repr(dataclasses.asdict(explicit))


def test_an_explicit_tuple_and_the_default_still_work():
    point = TracePoint(1, full_selection(2, 1).subsets[0], 0.5)
    assert Verdict(Conclusion.CAUCHY, Method.ANALYTIC, evidence=(point,)).evidence == (point,)
    assert Verdict(Conclusion.CAUCHY, Method.ANALYTIC).evidence == ()
    assert Verdict(Conclusion.BOUNDED, Method.ANALYTIC, bound=2.5).bound == 2.5
    assert Verdict(Conclusion.BOUNDED, Method.ANALYTIC).bound is None
    defaults = {f.name: f.default for f in dataclasses.fields(Verdict)}
    assert (defaults["evidence"], defaults["bound"]) == ((), None)


def test_the_bound_is_computed_once(monkeypatch):
    rng, frame, norm = _setup(3, 5, injected=True)
    spec, limit = _spec("oscillating", rng, 5)
    verdict = equivalence_matrix(spec, frame, norm, limit).rows[1].boundedness
    assert "bound" not in vars(verdict)
    calls = []
    bound = topology._bound
    monkeypatch.setattr(topology, "_bound", lambda *a: calls.append(a) or bound(*a))
    first = verdict.bound
    # stored on the instance, so later reads are plain attribute reads
    assert vars(verdict)["bound"] is first
    assert "_pending_bound" not in vars(verdict)
    assert verdict.bound is first
    assert verdict.bound is first
    assert len(calls) == 1
    # the evidence is still pending, and reads its own source
    assert "_pending_evidence" in vars(verdict)


def _table(rng, d, kind):
    """A tabulated sequence of six terms and a candidate limit."""
    spec, limit = _spec(kind, rng, d)
    return custom_sequence([(k, eval_sequence(spec, k)) for k in (1, 2, 3, 5, 8, 13)]), limit


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("kind", KINDS)
def test_sampled_evidence_matches_the_eager_build(kind, injected):
    # per subset s, per table entry (or gap) in order: (k, s, classm_norm
    # of the entry's offset, of the gap or of the entry), from a fresh
    # profile; a sampled bound is the largest of them
    n, d = 3, 5
    rng, frame, norm = _setup(n, d, injected)
    table, limit = _table(rng, d, kind)
    ks = [k for k, _ in table.table]
    vectors = [v for _, v in table.table]
    for m in (1, 2):
        sel = full_selection(n, m)
        columns = sorted(sel.union())
        offsets = [quotient_profile(frame, norm, v - limit, columns) for v in vectors]
        expected = [(k, s.indices, p.value(s).hex()) for s in sel.subsets for k, p in zip(ks, offsets)]
        assert _hex(converges_wrt(table, frame, norm, sel, limit).evidence) == expected
        gaps = [quotient_profile(frame, norm, b - a, columns) for a, b in zip(vectors, vectors[1:])]
        expected = [(k, s.indices, p.value(s).hex()) for s in sel.subsets for k, p in zip(ks, gaps)]
        assert _hex(is_cauchy_wrt(table, frame, norm, sel).evidence) == expected
        # boundedness samples the entries, or a point set's points at k = 1..L
        entries = [quotient_profile(frame, norm, v, columns) for v in vectors]
        for verdict, indices in [
            (is_bounded_wrt(table, frame, norm, sel), ks),
            (is_bounded_wrt(vectors, frame, norm, sel), range(1, len(vectors) + 1)),
        ]:
            expected = [(k, s.indices, p.value(s).hex()) for s in sel.subsets for k, p in zip(indices, entries)]
            assert _hex(verdict.evidence) == expected
            if verdict.conclusion is Conclusion.BOUNDED:
                assert verdict.bound.hex() == max(p.value for p in verdict.evidence).hex()


def test_sampled_verdicts_build_no_trace_point_until_their_evidence_is_read(monkeypatch):
    n, d = 3, 5
    rng, frame, norm = _setup(n, d, injected=False)
    table, limit = _table(rng, d, "convergent_power")
    sel = full_selection(n, 2)
    built = _counting_trace_points(monkeypatch)
    verdicts = [
        converges_wrt(table, frame, norm, sel, limit),
        is_cauchy_wrt(table, frame, norm, sel),
        is_bounded_wrt(table, frame, norm, sel),
        is_bounded_wrt([v for _, v in table.table], frame, norm, sel),
    ]
    assert built == []
    total = 0
    for verdict in verdicts:
        assert "evidence" not in vars(verdict)
        total += len(verdict.evidence)
        assert len(built) == total
    # 6 entries (5 gaps for Cauchy) per subset of class 2
    assert total == 3 * (6 + 5 + 6 + 6)


def _verdicts(table) -> list:
    return [v for row in table.rows for v in (row.convergence, row.boundedness, row.cauchy)]


def _counting_profiles(monkeypatch) -> list:
    """(u.tobytes(), columns) of every `_profile` a verdict takes, in order."""
    profiled = []
    profile = topology._profile

    def counted(frame, norm, u, columns):
        profiled.append((u.tobytes(), tuple(columns)))
        return profile(frame, norm, u, columns)

    monkeypatch.setattr(topology, "_profile", counted)
    return profiled


def _bound_keys(spec, n) -> set:
    """(u.tobytes(), all n columns) of the terms of a table's bound: x, or
    x and v, or x +- c v; none for a divergent sequence."""
    x, v, c = spec.base, spec.direction, spec.coefficient
    terms = {
        "constant": lambda: [x],
        "convergent_power": lambda: [x, v],
        "oscillating": lambda: [x + c * v, x - c * v],
        "divergent_linear": lambda: [],
    }[spec.kind.value]()
    return {(u.tobytes(), tuple(range(1, n + 1))) for u in terms}


def _evidence_keys(spec, limit, n, ks=(1, 10)) -> set:
    """(u.tobytes(), all n columns) of every vector a table's evidence
    samples: x_k - limit, x_k and x_{2k} - x_k."""
    vectors = []
    for k in ks:
        x = eval_sequence(spec, k)
        vectors += [x - limit, x, eval_sequence(spec, 2 * k) - x]
    return {(u.tobytes(), tuple(range(1, n + 1))) for u in vectors}


@pytest.mark.parametrize("bounds_first", [True, False], ids=["bounds-first", "evidence-first"])
@pytest.mark.parametrize("kind", sorted(DISTINCT_PROFILES))
def test_pending_evidence_is_profiled_once_on_first_read(monkeypatch, kind, bounds_first):
    n = 3
    rng = np.random.default_rng(n)
    cfg = SpaceConfig(dim=n + 1, arity=n)
    frame = random_frame(cfg, rng)
    norm, calls = _counting_norm(cfg)
    spec, limit = _exact_spec(kind, rng, n + 1)
    profiled = _counting_profiles(monkeypatch)
    verdicts = _verdicts(equivalence_matrix(spec, frame, norm, limit))
    assert len(profiled) == CALL_TIME_PROFILES[kind]
    assert len(calls) == n * CALL_TIME_PROFILES[kind]
    waiting = _evidence_keys(spec, limit, n) | _bound_keys(spec, n)
    waiting -= set(profiled)
    assert len(waiting) == DISTINCT_PROFILES[kind] - CALL_TIME_PROFILES[kind]
    if bounds_first:
        for verdict in verdicts:
            verdict.bound
        assert sorted(profiled[CALL_TIME_PROFILES[kind] :]) == sorted(_bound_keys(spec, n))
        assert len(calls) == n * (CALL_TIME_PROFILES[kind] + BOUND_PROFILES[kind])
    for verdict in verdicts:
        verdict.evidence
        verdict.bound
    # each sampled vector or bound term the call did not profile, once
    # however many verdicts sample it, and the evaluator as often as an
    # eager build
    assert sorted(profiled[CALL_TIME_PROFILES[kind] :]) == sorted(waiting)
    assert len(calls) == n * DISTINCT_PROFILES[kind]


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_an_out_of_range_evidence_scale_raises_on_first_read(injected):
    # the traced direction v has scale 5e307; x_10 = 10 v and x_20 - x_10
    # are finite, but their scales, 5e308, are not, and only the evidence
    # samples them
    cfg = SpaceConfig(dim=3, arity=2)
    frame = Frame(space=cfg, vectors=10.0 * np.eye(3)[:2])
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    table = equivalence_matrix(divergent_linear(5e306 * np.eye(3)[2]), frame, norm, np.zeros(3))
    assert table.conclusions("convergence") == [Conclusion.DIVERGES] * 2
    assert table.conclusions("boundedness") == [Conclusion.UNBOUNDED] * 2
    assert table.conclusions("cauchy") == [Conclusion.NOT_CAUCHY] * 2
    for verdict in _verdicts(table):
        with pytest.raises(ScaleOutOfRange):
            verdict.evidence
        # nothing is stored, so a second read raises again
        assert "evidence" not in vars(verdict)
        with pytest.raises(ScaleOutOfRange):
            verdict.evidence


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
def test_an_out_of_range_bound_scale_raises_on_first_read(injected):
    # a constant x = 5e307 e_3 is finite and its offset from x is zero, but
    # the scale of x, the bound's one term, is 5e308: the conclusions never
    # read it, the first read of a bound does
    cfg = SpaceConfig(dim=3, arity=2)
    frame = Frame(space=cfg, vectors=10.0 * np.eye(3)[:2])
    norm = _counting_norm(cfg)[0] if injected else standard_nnorm(cfg)
    x = 5e307 * np.eye(3)[2]
    table = equivalence_matrix(constant(x), frame, norm, x)
    assert table.conclusions("convergence") == [Conclusion.CONVERGES] * 2
    assert table.conclusions("boundedness") == [Conclusion.BOUNDED] * 2
    assert table.conclusions("cauchy") == [Conclusion.CAUCHY] * 2
    verdicts = [row.boundedness for row in table.rows] + [is_bounded_wrt(constant(x), frame, norm, full_selection(2, 1))]
    for verdict in verdicts:
        with pytest.raises(ScaleOutOfRange):
            verdict.bound
        # nothing is stored, so a second read raises again
        assert "bound" not in vars(verdict)
        with pytest.raises(ScaleOutOfRange):
            verdict.bound
    # the verdicts that sample only the zero offset and gap read as ever
    for row in table.rows:
        assert {p.value for p in row.convergence.evidence + row.cauchy.evidence} == {0.0}


def test_a_pickled_unread_verdict_holds_no_frame_norm_or_key(monkeypatch):
    rng, frame, norm = _setup(3, 5, injected=False)
    spec, limit = _spec("convergent_power", rng, 5)
    profiled = _counting_profiles(monkeypatch)
    verdicts = _verdicts(equivalence_matrix(spec, frame, norm, limit))
    # every evidence vector of a convergent power is pending: pickling the
    # first verdict of each kind profiles it
    keys = _evidence_keys(spec, limit, 3)
    assert len(keys) == 6 and not keys & set(profiled)
    # and so are the bound's terms, x and v; x is also the limit a
    # converging verdict carries
    bound_keys = _bound_keys(spec, 3)
    assert len(bound_keys) == 2 and not bound_keys & set(profiled)
    for verdict in verdicts:
        blob = pickle.dumps(verdict)
        assert b"Frame" not in blob and b"NNorm" not in blob and b"Class1Values" not in blob
        assert not any(key in blob for key, _ in keys)
        assert spec.direction.tobytes() not in blob
        assert _bits(pickle.loads(blob)) == _bits(verdict)
    assert keys | bound_keys <= set(profiled)


def _reaches(root, kind) -> bool:
    """Does an instance of `kind` lie among the objects `root` refers to,
    directly or through others? Classes, modules and functions end the
    walk, so it stays among the instances a verdict holds."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            return True
        stack.extend(gc.get_referents(obj))
    return False


@pytest.mark.parametrize("injected", [False, True], ids=["standard", "injected"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_unread_verdict_reaches_no_profile(kind, injected):
    n, d = 3, 5
    rng, frame, norm = _setup(n, d, injected)
    spec, limit = _spec(kind, rng, d)
    sel = full_selection(n, 2)
    table, _ = _table(rng, d, kind)
    verdicts = _verdicts(equivalence_matrix(spec, frame, norm, limit)) + [
        converges_wrt(spec, frame, norm, sel, limit),
        is_cauchy_wrt(spec, frame, norm, sel),
        is_bounded_wrt(spec, frame, norm, sel),
        converges_wrt(table, frame, norm, sel, limit),
        is_cauchy_wrt(table, frame, norm, sel),
        is_bounded_wrt(table, frame, norm, sel),
        is_bounded_wrt([v for _, v in table.table], frame, norm, sel),
    ]
    pending_bounds = 0
    for verdict in verdicts:
        assert "evidence" not in vars(verdict)
        if verdict.method is Method.ANALYTIC and verdict.conclusion is Conclusion.BOUNDED:
            assert "bound" not in vars(verdict)
            pending_bounds += "_pending_bound" in vars(verdict)
        assert not _reaches(vars(verdict), (Profile, topology.AnalyticTraces))
        # the walk finds what a verdict does hold
        assert _reaches(vars(verdict), IndexSet)
    # every table row and the public verdict keep a bound's source, but for
    # a divergent sequence, whose direction here leaves the kept spans
    assert pending_bounds == (0 if kind == "divergent_linear" else n + 1)
