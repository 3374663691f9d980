"""The result records' contract: `Verdict`, `EquivalenceRow`,
`EquivalenceTable` and `quotient.Profile` keep their fields, constructors,
`repr`, frozen guards and pickling, whatever their constructors do inside."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from nnormkit.quotient import SPAN_DECISION_REL, IndexSet, Profile
from nnormkit.topology import Conclusion, EquivalenceRow, EquivalenceTable, Method, TracePoint, Verdict

C, M = Conclusion, Method


def _verdict(conclusion=C.CAUCHY):
    return Verdict(conclusion, M.ANALYTIC)


def _row():
    return EquivalenceRow(2, _verdict(C.CONVERGES), _verdict(C.BOUNDED), _verdict())


def _profile():
    return Profile(np.array([1.0, 2.5, 0.0]), np.array([2.0, 5.0, 4.0]), np.array([False, False, True]))


def _record(name):
    return {"verdict": _verdict, "row": _row, "table": lambda: EquivalenceTable((_row(),)), "profile": _profile}[name]()


RECORDS = ["verdict", "row", "table", "profile"]


@pytest.mark.parametrize(
    "cls, names, match_args",
    [
        (
            Verdict,
            ("conclusion", "method", "limit", "bound", "evidence", "window"),
            ("conclusion", "method", "limit", "bound", "evidence", "window", "_source"),
        ),
        (EquivalenceRow, ("m", "convergence", "boundedness", "cauchy"), None),
        (EquivalenceTable, ("rows",), None),
        (Profile, ("values", "scales", "zero"), None),
    ],
    ids=["verdict", "row", "table", "profile"],
)
def test_fields_and_match_args(cls, names, match_args):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == (names if match_args is None else match_args)


def test_verdict_construction_and_repr():
    point = TracePoint(1, IndexSet((1,)), 0.5)
    by_position = Verdict(C.BOUNDED, M.SAMPLED, None, 2.0, (point,), (1, 6))
    by_keyword = Verdict(window=(1, 6), evidence=(point,), bound=2.0, method=M.SAMPLED, conclusion=C.BOUNDED)
    assert by_position == by_keyword
    assert (by_keyword.conclusion, by_keyword.method, by_keyword.limit) == (C.BOUNDED, M.SAMPLED, None)
    assert (by_keyword.bound, by_keyword.evidence, by_keyword.window) == (2.0, (point,), (1, 6))
    assert repr(_verdict()) == (
        "Verdict(conclusion=<Conclusion.CAUCHY: 'cauchy'>, method=<Method.ANALYTIC: 'analytic'>, "
        "limit=None, bound=None, evidence=(), window=None)"
    )


def test_verdict_defaults_and_window():
    verdict = _verdict()
    assert verdict.evidence == () and verdict.limit is None and verdict.bound is None and verdict.window is None
    with pytest.raises(ValueError, match="sampled verdicts must carry their window"):
        Verdict(C.INCONCLUSIVE, M.SAMPLED)
    with pytest.raises(ValueError, match="sampled verdicts must carry their window"):
        Verdict(conclusion=C.CAUCHY, method=M.SAMPLED, evidence=())


def test_verdict_replace_and_asdict():
    verdict = Verdict(C.BOUNDED, M.ANALYTIC, bound=3.0)
    assert dataclasses.replace(verdict, bound=4.0) == Verdict(C.BOUNDED, M.ANALYTIC, bound=4.0)
    assert dataclasses.asdict(verdict) == {
        "conclusion": C.BOUNDED,
        "method": M.ANALYTIC,
        "limit": None,
        "bound": 3.0,
        "evidence": (),
        "window": None,
    }


def test_row_and_table_construction_and_repr():
    a, b, c = _verdict(C.CONVERGES), _verdict(C.BOUNDED), _verdict()
    row = EquivalenceRow(m=2, convergence=a, boundedness=b, cauchy=c)
    assert row == EquivalenceRow(2, a, b, c)
    assert (row.m, row.convergence, row.boundedness, row.cauchy) == (2, a, b, c)
    assert repr(row) == f"EquivalenceRow(m=2, convergence={a!r}, boundedness={b!r}, cauchy={c!r})"
    table = EquivalenceTable(rows=(row,))
    assert table == EquivalenceTable((row,)) and table.rows == (row,)
    assert repr(table) == f"EquivalenceTable(rows=({row!r},))"


def test_profile_construction_and_repr():
    values, scales, zero = np.array([1.0, 2.5]), np.array([2.0, 5.0]), np.array([False, True])
    for profile in (Profile(values, scales, zero), Profile(zero=zero, scales=scales, values=values)):
        assert profile.values is values and profile.scales is scales and profile.zero is zero
    assert repr(Profile(values, scales, zero)) == (
        "Profile(values=array([1. , 2.5]), scales=array([2., 5.]), zero=array([False,  True]))"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(name):
    record = _record(name)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1


def test_a_caller_built_profile_reads_its_arrays():
    profile = _profile()
    s13, s12, all3 = IndexSet((1, 3)), IndexSet((1, 2)), IndexSet((1, 2, 3))
    assert profile.value(s12) == 3.5 and profile.value(all3) == 3.5
    assert profile.scale(s13) == 6.0 and profile.scale(all3) == 11.0
    assert profile.terms(s13) == [(1.0, 2.0), (0.0, 4.0)]
    assert profile.floor(all3) == SPAN_DECISION_REL * 11.0
    assert profile.is_zero(IndexSet((3,))) and not profile.is_zero(s13)


@pytest.mark.parametrize("name", RECORDS)
def test_records_round_trip_through_pickle(name):
    record = _record(name)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    if name != "profile":
        assert back == record
        return
    for field in ("values", "scales", "zero"):
        assert np.array_equal(getattr(back, field), getattr(record, field))
    s = IndexSet((1, 2, 3))
    assert (back.value(s), back.scale(s), back.terms(s), back.floor(s)) == (
        record.value(s),
        record.scale(s),
        record.terms(s),
        record.floor(s),
    )
    assert back.is_zero(IndexSet((3,))) and not back.is_zero(s)


def test_profile_arrays_are_read_only():
    # the value lists are read when the profile is made, so the arrays must
    # not change under them, in a copy or a pickle either
    profile = _profile()
    for made in (profile, copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
        for field in ("values", "scales", "zero"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(made, field)[0] = 0
        assert made.value(IndexSet((1,))) == 1.0
