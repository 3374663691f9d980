"""Sequences, verdicts, covering combinatorics, and the R^5 demonstration.

Convergence, boundedness, and Cauchy verdicts with respect to a selection of
quotient norms come in two flavours. For the closed-form sequence kinds the
per-subset norm trace has an explicit limit in the index k, so the verdict is
Analytic and exact. For tabulated data the verdict is Sampled and biased
toward Inconclusive: a finite window can support a conclusion but never
prove one.

Every verdict reduces its subset questions to the class-1 profiles of the
vectors involved (`quotient.Profile`), read by column for each subset and
built once per distinct vector and column set, per call (`_profiles`):
repeated table entries, zero gaps and trace vectors that coincide share one
profile, so one verdict call, its evidence read included, calls an injected
evaluator once per distinct pair of a vector and a requested column.
Zero/nonzero classification happens once per frame index, so verdicts
derived from the same profile can never disagree by rounding: the
cross-class equivalences hold through the same class-1 decomposition that
makes them true. An analytic verdict reads its conclusion once, over the
selection's columns, the sorted union of its subsets (the union rule): a
class-m trace tends to zero exactly when every class-1 trace over its subset
does, so all selected traces do exactly when every class-1 trace over the
union does. That is the covering identity acceptance criterion 5 checks: a
family that covers 1..n decides as the full collection does. An equivalence
table takes one set of trace profiles and reads all n of its class-m rows
off it, through the same row builders the public verdicts use, each
conclusion once over 1..n; only a bound is read subset by subset, as the max
of the per-subset bounds (`_bound`, one formula per kind). Every verdict
keeps the class-1 values of the vectors it sampled and builds its trace
points from them on the first read of `evidence`, subset by subset
(`Verdict`): one evidence path, which a sampled bound does not bypass. An
analytic verdict's conclusion reads only the traces, so it keeps its
evidence vectors as bytes, and a BOUNDED one the keys of its bound's terms,
and reads their class-1 values on the first read of `evidence` or of
`bound` through the call's one map from (vector bytes, columns) to value
list (`_Class1Values`), which profiles a vector on its first request: a
caller that reads only the conclusions profiles the traces and nothing
else. When the call can prove that no evidence vector can overflow
(`_rows_stay_finite`), it does not even compute them: each evidence row is
built on its first read, from the read-only copies that the spec keeps of
its vectors and the call of its limit, so a caller's later write to its
arrays changes nothing a verdict reads.

Inputs are validated once, at the public boundary; a sequence's vectors
when it is built, and its fit to a frame once per verdict. Table entries,
and the vectors a verdict computes from a checked sequence and limit (under
one `np.errstate` guard), go to the profile's private entry unchecked; one
that overflowed is still named non-finite there, with no numpy warning on
the way. Tabulated verdicts share one trend rule (`_decays`), under which
a trace with a NaN or an infinity never decays, and every sampled verdict,
a point set's too, one constructor (`_sampled`), which takes a sampled
bound as the largest evidence value and reads a BOUNDED whose values
include a NaN or an infinity as Inconclusive. Cauchy and
boundedness read a table through its L - 1 successive gaps, so a
tabulated linear sequence, whose gaps stay level, is neither Cauchy nor
Bounded: a finite table alone never passes as bounded.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass
from functools import lru_cache, reduce
from enum import Enum
from itertools import combinations
from operator import or_
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linalg import NON_FINITE, DimensionMismatch, SpaceConfig, _index, _mapping, as_vector
from .nnorm import NNorm, standard_nnorm
from .quotient import (
    Frame,
    IndexSet,
    Profile,
    _check_compatible,
    _class_shape,
    _profile,
    _subset_all,
    _subset_sum,
    class_collection,
    quotient_profile,
    standard_frame,
)

__all__ = [
    "SequenceKind",
    "SequenceSpec",
    "convergent_power",
    "divergent_linear",
    "oscillating",
    "constant",
    "custom_sequence",
    "eval_sequence",
    "natural_limit",
    "NormSelection",
    "full_selection",
    "Conclusion",
    "Method",
    "TracePoint",
    "Verdict",
    "converges_wrt",
    "is_cauchy_wrt",
    "is_bounded_wrt",
    "EquivalenceTable",
    "equivalence_matrix",
    "covering_check",
    "minimal_cover_size",
    "enumerate_minimal_covers",
    "closed_set_probe",
    "ClosedSetReport",
    "CounterexampleRecord",
    "counterexample_r5",
    "emit_trace_csv",
    "parse_trace_csv",
    "class1_profile",
    "zero_profile",
    "AnalyticTraces",
]

DEFAULT_EVIDENCE_KS = (1, 2, 5, 10, 100)


def _frozen(x, dim: int | None = None) -> np.ndarray:
    """A read-only copy of `as_vector(x, dim)`: what a spec or an analytic
    call keeps of a caller's vector, so that a later write by the caller
    changes nothing it reads, at the call or on a deferred read."""
    v = as_vector(x, dim).copy()
    v.flags.writeable = False
    return v


class SequenceKind(Enum):
    CONVERGENT_POWER = "convergent_power"  # x + c * k**(-p) * v
    DIVERGENT_LINEAR = "divergent_linear"  # k * v
    OSCILLATING = "oscillating"  # x + (-1)**k * c * v
    CONSTANT = "constant"  # x
    CUSTOM = "custom"  # finite table of (k, vector)


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """A parametric sequence family in R^d with exact per-k evaluation; a
    kind with a direction needs a finite coefficient. The spec keeps
    read-only copies of its base, direction and table vectors, as `Frame`
    keeps its vectors, so writing to the arrays it was given changes no
    term."""

    kind: SequenceKind
    base: np.ndarray | None = None
    direction: np.ndarray | None = None
    coefficient: float = 1.0
    exponent: float = 1.0
    table: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.kind is SequenceKind.CUSTOM:
            if not self.table:
                raise ValueError("custom sequence needs a nonempty table")
            try:
                pairs = [(k, v) for k, v in self.table]
            except (TypeError, ValueError):
                raise ValueError("a custom table holds (k, vector) pairs") from None
            ks = [_index(k) for k, _ in pairs]
            if any(k < 1 for k in ks) or any(a >= b for a, b in zip(ks, ks[1:])):
                raise ValueError("table indices must be strictly increasing and >= 1")
            dim = len(as_vector(pairs[0][1]))
            frozen = tuple((k, _frozen(v, dim)) for k, (_, v) in zip(ks, pairs))
            object.__setattr__(self, "table", frozen)
            return
        if self.base is None and self.kind is not SequenceKind.DIVERGENT_LINEAR:
            raise ValueError(f"{self.kind.value} needs a base point")
        if self.base is not None:
            object.__setattr__(self, "base", _frozen(self.base))
        if self.kind is SequenceKind.CONSTANT:
            return
        if self.direction is None:
            raise ValueError(f"{self.kind.value} needs a direction vector")
        direction = _frozen(self.direction, None if self.base is None else self.base.shape[0])
        if not np.any(direction != 0.0):
            raise ValueError("direction vector must be nonzero")
        object.__setattr__(self, "direction", direction)
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient}")
        if self.kind is SequenceKind.CONVERGENT_POWER and not self.exponent > 0.0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")

    @property
    def dim(self) -> int:
        if self.kind is SequenceKind.CUSTOM:
            return self.table[0][1].shape[0]
        if self.base is not None:
            return self.base.shape[0]
        return self.direction.shape[0]

    def to_json(self) -> dict:
        if self.kind is SequenceKind.CUSTOM:
            return {"kind": self.kind.value, "table": [[k, v.tolist()] for k, v in self.table]}
        out: dict = {"kind": self.kind.value}
        if self.base is not None:
            out["base"] = self.base.tolist()
        if self.direction is not None:
            out["direction"] = self.direction.tolist()
            out["coefficient"] = self.coefficient
        if self.kind is SequenceKind.CONVERGENT_POWER:
            out["exponent"] = self.exponent
        return out

    @classmethod
    def from_json(cls, obj) -> "SequenceSpec":
        _mapping(obj, "sequence spec")
        kind = SequenceKind(obj["kind"])
        if kind is SequenceKind.CUSTOM:
            return custom_sequence(obj["table"])
        return cls(
            kind=kind,
            base=None if obj.get("base") is None else np.array(obj["base"], dtype=float),
            direction=None if obj.get("direction") is None else np.array(obj["direction"], dtype=float),
            coefficient=float(obj.get("coefficient", 1.0)),
            exponent=float(obj.get("exponent", 1.0)),
        )


def convergent_power(limit, direction, coefficient: float = 1.0, exponent: float = 1.0) -> SequenceSpec:
    """x_k = limit + coefficient * k**(-exponent) * direction."""
    return SequenceSpec(
        kind=SequenceKind.CONVERGENT_POWER,
        base=limit,
        direction=direction,
        coefficient=coefficient,
        exponent=exponent,
    )


def divergent_linear(direction) -> SequenceSpec:
    """x_k = k * direction."""
    return SequenceSpec(kind=SequenceKind.DIVERGENT_LINEAR, direction=direction)


def oscillating(center, direction, coefficient: float = 1.0) -> SequenceSpec:
    """x_k = center + (-1)**k * coefficient * direction."""
    return SequenceSpec(kind=SequenceKind.OSCILLATING, base=center, direction=direction, coefficient=coefficient)


def constant(point) -> SequenceSpec:
    return SequenceSpec(kind=SequenceKind.CONSTANT, base=point)


def custom_sequence(table) -> SequenceSpec:
    """A finite table of (k, vector) pairs, k strictly increasing from 1; a
    mapping gives its items, in order."""
    return SequenceSpec(kind=SequenceKind.CUSTOM, table=tuple(table.items() if isinstance(table, Mapping) else table))


def eval_sequence(spec: SequenceSpec, k: int):
    """Exact value of the k-th term, k >= 1; a k that is not a whole number
    raises a ValueError naming it."""
    k = _index(k, "k")
    if k < 1:
        raise ValueError(f"sequences are indexed from k = 1, got {k}")
    return _eval(spec, k)


def _eval(spec: SequenceSpec, k: int):
    """`eval_sequence` for an int k >= 1, unchecked: the evidence rows call
    it once per sampled index."""
    if spec.kind is SequenceKind.CONVERGENT_POWER:
        return spec.base + spec.coefficient * float(k) ** (-spec.exponent) * spec.direction
    if spec.kind is SequenceKind.DIVERGENT_LINEAR:
        return float(k) * spec.direction
    if spec.kind is SequenceKind.OSCILLATING:
        return spec.base + (-1.0) ** k * spec.coefficient * spec.direction
    if spec.kind is SequenceKind.CONSTANT:
        return spec.base.copy()
    for kk, v in spec.table:
        if kk == k:
            return v.copy()
    raise ValueError(f"k={k} is not in the custom table")


def natural_limit(spec: SequenceSpec):
    """The limit of the sequence in R^d, or None if it does not converge.

    Convergence here is genuine (full-collection) convergence, which does not
    depend on any frame.
    """
    if spec.kind in (SequenceKind.CONVERGENT_POWER, SequenceKind.CONSTANT):
        return spec.base.copy()
    if spec.kind is SequenceKind.OSCILLATING and spec.coefficient == 0.0:
        return spec.base.copy()
    return None


@dataclass(frozen=True)
class NormSelection:
    """A chosen family of same-size index sets out of a class collection;
    the arity n is a whole number (3.0 means 3)."""

    n: int
    subsets: tuple[IndexSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "n"))
        if not self.subsets:
            raise ValueError("selection needs at least one index set")
        subsets = tuple(self.subsets)
        sizes = {s.m for s in subsets}
        if len(sizes) != 1:
            raise ValueError(f"selection mixes subset sizes {sorted(sizes)}")
        if len(set(subsets)) != len(subsets):
            raise ValueError("selection contains duplicate index sets")
        for s in subsets:
            s.validate_for(self.n)
        object.__setattr__(self, "subsets", subsets)

    @property
    def m(self) -> int:
        return self.subsets[0].m

    def union(self) -> set[int]:
        out: set[int] = set()
        for s in self.subsets:
            out |= set(s.indices)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "subsets": [s.to_json() for s in self.subsets]}

    @classmethod
    def from_json(cls, obj) -> "NormSelection":
        _mapping(obj, "norm selection")
        return cls(n=obj["n"], subsets=tuple(IndexSet.from_json(s) for s in obj["subsets"]))


@lru_cache
def full_selection(n: int, m: int) -> NormSelection:
    """The whole class-m collection as a selection; built once per (n, m)
    and shared, which is safe because it is frozen."""
    return NormSelection(n=n, subsets=class_collection(n, m).members)


class Conclusion(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    CAUCHY = "cauchy"
    NOT_CAUCHY = "not_cauchy"
    INCONCLUSIVE = "inconclusive"


class Method(Enum):
    ANALYTIC = "analytic"
    SAMPLED = "sampled"


class TracePoint(NamedTuple):
    k: int
    subset: IndexSet
    value: float


class _Deferred:
    """A verdict field built from its pending source on first read: the
    first read calls `build` on the source, kept in the instance dict under
    "_pending_<field>", stores the value under the field's name and drops
    the source. This is a non-data descriptor, so the stored value shadows
    it and every later read is a plain attribute read. A build that raises
    stores nothing and keeps the source, so the next read raises again."""

    def __init__(self, build, default):
        self.build, self.default = build, default

    def __set_name__(self, owner, name):
        self.name, self.pending = name, "_pending_" + name

    def __get__(self, verdict, owner=None):
        if verdict is None:
            return self.default
        state = verdict.__dict__
        source = state.get(self.pending)
        if source is None:  # another thread built it after this lookup began
            return state[self.name]
        # setdefault, so that readers racing on the first read share one value
        value = state.setdefault(self.name, self.build(source))
        state.pop(self.pending, None)
        return value


class _BoundTerms(tuple):
    """The source of an analytic bound, passed as `bound`: `_bound`'s
    arguments (the call's value map, the keys of the bound's terms, the
    kind and coefficient, and the selection's subsets), and nothing else."""


@dataclass(frozen=True, init=False)
class Verdict:
    """A conclusion, how it was reached, and the trace points behind it.

    `evidence` holds one trace point (k, s, classm_norm(x, s)) per sampled
    index k and subset s. The verdict functions pass its source instead, as
    `_source` (the arguments of `_trace_points`): the sampled vectors' (k,
    class-1 value list) pairs and the selection, or for an analytic verdict
    (k, u.tobytes()) pairs, the selection, the call's value map and its
    column set. Every verdict function passes a source, a sampled
    boundedness verdict too: its bound is the largest value of its
    evidence (at least 0), read off the same value lists by the call, and
    a sampled BOUNDED whose values include a NaN or an infinity is
    Inconclusive, with no bound. No source holds a `quotient.Profile`.
    From it `evidence` is built subset by subset (s outer, k inner), on
    first read, and cached, so a reader pays what an eager build cost and
    a caller that reads only the conclusion pays nothing. That first read
    profiles, through the map, any evidence vector of an analytic verdict
    that no trace, bound or earlier read profiled, so it may call an
    injected evaluator or raise what such a profile raises, such as
    `ScaleOutOfRange`.

    An analytic BOUNDED verdict defers its `bound` the same way: it is
    given the bound's source (`_BoundTerms`, no trace or `Profile`) as
    `bound`, and the first read of `bound` computes it (`_bound`), through
    the same map, profiling a term that no trace or earlier read
    profiled; a term whose scale is out of range raises `ScaleOutOfRange`
    there, on each read until one succeeds. Equality, `repr`,
    `dataclasses.replace` and `asdict` read `bound` and `evidence`, and a
    copy or a pickle carries the built values, so they see what a verdict
    given the same values gives, bit for bit. Equality, copy, pickle,
    `replace` and `asdict` raise what such a read raises; `repr` never
    does: a field whose read raises shows as `<raises Name: message>`, so
    printing a table or a failed assertion on one stays possible.

    An analytic verdict's `limit` is the call's read-only copy of the
    candidate limit, never the caller's array. Its evidence vectors
    themselves (x_k - limit, x_k, x_{2k} - x_k) are built at the call,
    where one that overflowed is named non-finite, unless the call proves
    that none can overflow (`AnalyticTraces`); then they too wait for the
    first read of `evidence`, and are computed from the spec's and the
    call's read-only copies, so they are what the call would have built.

    There is one constructor, which writes the instance dict directly: it
    refuses a sampled verdict without its window, and keeps the `evidence`
    tuple or, when `_source` is given, that source in its place, and the
    `bound` or its source. The dataclass supplies the fields, the hash and
    the frozen guards; equality is its field-by-field comparison with the
    limit compared by value, and `repr` its form with the marker above.
    `_source` stays declared init-only, so `__match_args__` and
    `dataclasses.replace` see it as a generated constructor's would.
    """

    conclusion: Conclusion
    method: Method
    limit: np.ndarray | None = None
    # the builders are defined below, so each is looked up when it runs
    bound: float | None = _Deferred(lambda source: _bound(*source), None)
    evidence: tuple[TracePoint, ...] = _Deferred(lambda source: _trace_points(*source), ())
    window: tuple[int, int] | None = None
    _source: InitVar[tuple | None] = None

    def __init__(self, conclusion, method, limit=None, bound=None, evidence=(), window=None, _source=None):
        if method is Method.SAMPLED and window is None:
            raise ValueError("sampled verdicts must carry their window")
        state = self.__dict__
        state["conclusion"], state["method"], state["limit"] = conclusion, method, limit
        state["_pending_bound" if type(bound) is _BoundTerms else "bound"] = bound
        state["window"] = window
        if _source is None:
            state["evidence"] = evidence
        else:
            state["_pending_evidence"] = _source

    def __getstate__(self):
        # every field read, so a copy or a pickle holds no source
        return {name: getattr(self, name) for name in _VERDICT_FIELDS}

    def __eq__(self, other):
        # the dataclass's comparison, field by field, with a limit compared
        # by its values: each analytic call keeps its own copy of it
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    def __repr__(self):
        # the dataclass's form, with a marker for a field whose read raises
        shown = []
        for name in _VERDICT_FIELDS:
            try:
                text = repr(getattr(self, name))
            except Exception as error:
                text = f"<raises {type(error).__name__}: {error}>"
            shown.append(f"{name}={text}")
        return f"{type(self).__qualname__}({', '.join(shown)})"


_VERDICT_FIELDS = ("conclusion", "method", "limit", "bound", "evidence", "window")


def _compared(verdict: Verdict) -> tuple:
    """A verdict's fields, in order, as its equality compares them."""
    fields = [getattr(verdict, name) for name in _VERDICT_FIELDS]
    if fields[2] is not None:
        fields[2] = fields[2].tolist()
    return tuple(fields)


# ---------------------------------------------------------------------------
# class-1 profiles: the analytic backbone


def class1_profile(frame: Frame, norm: NNorm, w) -> np.ndarray:
    """Vector of the n class-1 norm values of w."""
    return quotient_profile(frame, norm, w).values


def zero_profile(frame: Frame, norm: NNorm, w) -> np.ndarray:
    """Per-index zero classification of the class-1 values of w.

    Entry j-1 answers: is the coset of w trivial after removing y_j, that
    is, does w lie within tol.zero * |w| of the span of the frame without
    y_j (`quotient.Profile`)?
    """
    return quotient_profile(frame, norm, w).zero


def _check_spec(spec: SequenceSpec, frame: Frame, norm: NNorm) -> None:
    """A sequence's dimension and the norm must fit the frame."""
    if spec.dim != frame.dim:
        raise DimensionMismatch("sequence dimension", frame.dim, spec.dim)
    _check_compatible(frame, norm)


def _profiles(frame: Frame, norm: NNorm, vectors, columns: tuple[int, ...], memo: dict) -> list[Profile]:
    """Class-1 profiles of computed vectors, one `_profile` per distinct
    vector and column set.

    A profile is a pure function of (frame, norm, u, columns), so a vector
    seen before, bit for bit, under the same columns gets the profile it got
    then. `memo` maps (u.tobytes(), columns) to that profile; its owner, one
    public verdict call or the traces of one `AnalyticTraces`, holds it for
    one frame and one norm and drops it with itself; no verdict keeps it. A
    non-finite vector raises where it first occurs, as `_profile` raises.
    """
    out = []
    for u in vectors:
        key = (u.tobytes(), columns)
        profile = memo.get(key)
        if profile is None:
            profile = memo[key] = _profile(frame, norm, u, columns)
        out.append(profile)
    return out


def _zero_flags(profiles: list[Profile], n: int) -> list[bool]:
    """The per-index AND of the profiles' zero flags; all True for none."""
    flags = [True] * n
    for p in profiles:
        flags = [a and b for a, b in zip(flags, p._zero_list)]
    return flags


class _Class1Values(dict):
    """The class-1 value lists of one analytic call, by (u.tobytes(),
    columns), against the call's frame and norm. A vector is profiled on
    its first request, rebuilt from its bytes, so the map holds no vector,
    trace or `Profile` of the call, only lists of n floats. The call seeds
    it with the lists of its trace profiles; every verdict's bound and
    evidence read through it, so a vector that several rows sample, or that
    is both a sampled vector and a bound's term, is profiled once, on the
    first read of any of them."""

    __slots__ = ("frame", "norm")

    def __init__(self, frame: Frame, norm: NNorm):
        self.frame = frame
        self.norm = norm

    def __missing__(self, key: tuple[bytes, tuple[int, ...]]) -> list[float]:
        u, columns = key
        values = self[key] = _profile(self.frame, self.norm, np.frombuffer(bytearray(u)), columns)._value_list
        return values


class AnalyticTraces:
    """Per-subset limiting behaviour of the norm traces of a closed-form
    sequence, relative to a candidate limit (where one is involved).

    A class-m norm is a sum of class-1 norms, so each question is per index:
    a subset's trace tends to zero exactly when every class-1 trace over it
    does. The constructor states once per kind which trace vectors decide
    convergence to the limit and which decide Cauchy, with w = x - limit:

    - divergent linear k v: (v, limit) and (v); k v must lie in the kept
      span, after which the offset is constantly the (negated) limit;
    - oscillating x + (-1)^k c v: (w + c v, w - c v) and (c v), or nothing
      when c = 0;
    - constant and convergent power: (w) and nothing.

    It keeps one list of n flags per question, the AND of those traces'
    `Profile.zero` flags (all True when no trace decides it), read with
    `_subset_all`, the reader `Profile.is_zero` uses: zero decisions are the
    one per-index rule. By the union rule a selection's question is the AND
    of the flags over its columns, the union of its subsets, which is the
    covering identity acceptance criterion 5 checks; so a verdict row reads
    them once, over `columns`, and `trace_limit_zero` and `cauchy_on` read
    them over one s. Boundedness is a third list: only a divergent
    sequence's traces grow, exactly where it is not Cauchy. The bound is one
    formula per kind (`_bound`), the max of its per-subset sums, which a
    BOUNDED row leaves to the first read of its `bound` (`_BoundTerms`) and
    `bounded_on` takes at one s. Traces made without a limit have no
    convergence flags.

    `evidence` names the rows a verdict or table samples, each as
    (ks, vector_at), and `columns` the selection's columns: the sorted frame
    indices its conclusions are read over and an injected evaluator is
    called on for the evidence (all n when None, as for a table);
    `self.evidence` holds one `_EvidenceRow` per row, whose iteration gives
    its (k, u.tobytes()) pairs, for the k >= 1 of its ks (sequences start
    at k = 1; a k that is not a whole number raises at the call). The call
    keeps a read-only copy of the limit (`self.limit`), which the verdicts'
    `limit` and the rows share. Every vector of the traces and their bounds
    is computed under one `np.errstate` guard, each evidence row under one
    of its own, and the profiles are taken after them: a vector that
    overflowed is named non-finite, with no numpy warning on the way, by
    the call, even when it is an evidence vector (one check over the
    stacked rows and the bound's terms, after the traces' own errors) or a
    bound's term (by the boundedness row, or `bounded_on`).

    The evidence rows are built at the call, and checked there, unless the
    call proves that no vector of theirs and no bound's term can overflow
    (`_rows_stay_finite`: the rows are the verdicts' own, every sampled k
    is at most 2**40, and 2·(|x|∞ + |c|·|v|∞·K + |limit|∞) <= 2**1020,
    with K = 2·k_max for a divergent sequence and 1 otherwise). Then the
    check could not fail, so it is skipped, and each row is built on its
    first iteration, the first read of a verdict's `evidence` that samples
    it, once for every verdict that shares it, from the spec's and the
    call's read-only copies: bit for bit the bytes the call would have
    built.

    The traces are profiled at once, each distinct vector once, under all n
    columns. Everything else goes through one `_Class1Values` map for the
    call, which the verdicts keep: it starts with every trace's values, so a
    constant's offsets are its traced offset and a divergent sequence's
    x_2 - x_1 is its direction, under all n columns. The bound's terms and
    every other evidence vector are profiled through it on first use, the
    first read of a verdict's `bound` or `evidence`, so an oscillation's
    terms x_1 = x - c v and x_10 = x + c v, its bound's terms, are
    profiled once, whichever is read first.
    """

    def __init__(self, spec: SequenceSpec, frame: Frame, norm: NNorm, limit=None, evidence=(), columns=None):
        if spec.kind is SequenceKind.CUSTOM:
            raise ValueError("analytic traces need a closed-form sequence")
        _check_spec(spec, frame, norm)
        self.spec = spec
        self.frame = frame
        self.norm = norm
        self.limit = None if limit is None else _frozen(limit, frame.dim)
        rows = [_EvidenceRow(vector_at, spec, self.limit, [k for k in [_index(k, "k") for k in ks] if k >= 1]) for ks, vector_at in evidence]
        kind = spec.kind
        # without a limit the offsets are stated against 0 and never profiled
        origin = np.zeros(frame.dim) if self.limit is None else self.limit
        with np.errstate(over="ignore", invalid="ignore"):
            if kind is SequenceKind.DIVERGENT_LINEAR:
                to_limit, cauchy, bounds = (spec.direction, origin), (spec.direction,), ()
            elif kind is SequenceKind.OSCILLATING:
                w, cv = spec.base - origin, spec.coefficient * spec.direction
                to_limit = (w + cv, w - cv)
                cauchy = (cv,) if spec.coefficient else ()
                bounds = (spec.base + cv, spec.base - cv)
            else:
                to_limit, cauchy = (spec.base - origin,), ()
                bounds = (spec.base,) if kind is SequenceKind.CONSTANT else (spec.base, spec.direction)
        stay_finite = _rows_stay_finite(spec, self.limit, rows)
        # a row built here raises what building it raises before any profile
        keys = [] if stay_finite else [key for row in rows for _, key in row]
        to_limit = () if self.limit is None else to_limit
        every, memo = tuple(range(1, frame.n + 1)), {}
        traced = _profiles(frame, norm, to_limit + cauchy, every, memo)
        self._limit_flags = None if self.limit is None else _zero_flags(traced[: len(to_limit)], frame.n)
        self._cauchy_flags = _zero_flags(traced[len(to_limit) :], frame.n)
        # only a divergent sequence's traces grow, and they stay bounded
        # exactly where it is Cauchy: where k v stays in the kept span, so
        # that every coset is the zero coset
        self._bounded_flags = self._cauchy_flags if kind is SequenceKind.DIVERGENT_LINEAR else [True] * frame.n
        self.evidence = rows
        bound_keys = [(b.tobytes(), every) for b in bounds]
        self._bounds_finite = True
        if not stay_finite:
            # one check over the stacked evidence rows and the bound's
            # terms; a term that overflowed is named by the row that reads
            # the bound
            finite = np.isfinite(np.frombuffer(b"".join(keys + [key for key, _ in bound_keys])))
            if not finite.all():
                if not finite[: len(keys) * frame.dim].all():
                    raise ValueError(NON_FINITE)
                self._bounds_finite = False
        self._columns = every if columns is None else tuple(columns)
        self._values = _Class1Values(frame, norm)
        self._values.update((key, p._value_list) for key, p in memo.items())
        self._bound_terms = (self._values, bound_keys, kind, spec.coefficient)

    def _limit_zero(self, indices: tuple[int, ...]) -> bool:
        """Does every class-1 trace to the limit over `indices` tend to zero?"""
        if self._limit_flags is None:
            raise ValueError("trace_limit_zero needs traces made with a candidate limit; these have none")
        return _subset_all(self._limit_flags, indices)

    def trace_limit_zero(self, s: IndexSet) -> bool:
        """Does classm_norm(x_k - limit, s) tend to zero?"""
        return self._limit_zero(s.indices)

    def cauchy_on(self, s: IndexSet) -> bool:
        """Does classm_norm(x_k - x_l, s) tend to zero as k, l -> oo?"""
        return _subset_all(self._cauchy_flags, s.indices)

    def bounded_on(self, s: IndexSet) -> tuple[bool, float]:
        """Is sup_k classm_norm(x_k, s) finite, and an analytic bound for it."""
        return (True, _bound(*self._bound_terms, (s,))) if _subset_all(self._bounded_flags, s.indices) else (False, math.inf)


def _bound(values: dict, keys, kind: SequenceKind, coefficient: float, subsets: Sequence[IndexSet]) -> float:
    """The max over `subsets`, in their order, of the analytic bound on
    sup_k classm_norm(x_k, s), where that is finite: the one per-kind
    formula, which a BOUNDED row's `bound` reads over its selection on its
    first read and `AnalyticTraces.bounded_on` at one s. The terms'
    class-1 value lists are read through the call's map by their `keys`,
    where an evidence vector that is one of them finds them too."""
    if kind is SequenceKind.DIVERGENT_LINEAR:
        return 0.0
    terms = [values[key] for key in keys]
    if kind is SequenceKind.CONSTANT:
        return max(_subset_sum(terms[0], s) for s in subsets)
    if kind is SequenceKind.CONVERGENT_POWER:
        # k >= 1 so |c| k**-p <= |c|
        (base, direction), c = terms, abs(coefficient)
        return max(_subset_sum(base, s) + c * _subset_sum(direction, s) for s in subsets)
    plus, minus = terms
    return max(max(_subset_sum(plus, s), _subset_sum(minus, s)) for s in subsets)


# What the evidence rows of each verdict sample at index k.


def _offset(spec: SequenceSpec, limit, k: int):
    """x_k - limit, for convergence."""
    return _eval(spec, k) - limit


def _term(spec: SequenceSpec, limit, k: int):
    """x_k, for boundedness."""
    return _eval(spec, k)


def _doubling_gap(spec: SequenceSpec, limit, k: int):
    """x_{2k} - x_k, for Cauchy: it exposes both decay and linear growth."""
    return _eval(spec, 2 * k) - _eval(spec, k)


class _EvidenceRow:
    """One evidence row of an analytic call: iterating it gives the (k,
    u.tobytes()) pairs of u = vector_at(spec, limit, k) at the sampled ks,
    in order, computed under one `np.errstate` guard on the first
    iteration and kept, so the verdicts that share the row share one
    build. It holds the spec and the call's limit, read-only copies both,
    and no trace, profile or frame."""

    __slots__ = ("vector_at", "spec", "limit", "ks", "_pairs")

    def __init__(self, vector_at, spec: SequenceSpec, limit, ks: list[int]):
        self.vector_at, self.spec, self.limit, self.ks, self._pairs = vector_at, spec, limit, ks, None

    def __iter__(self):
        if self._pairs is None:
            with np.errstate(over="ignore", invalid="ignore"):
                row = [(k, self.vector_at(self.spec, self.limit, k)) for k in self.ks]
            self._pairs = [(k, u.tobytes()) for k, u in row]
        return iter(self._pairs)


#: the largest overflow bound under which evidence rows wait for their
#: first read (`_rows_stay_finite`), and the largest sampled k
_DEFER_BELOW = 2.0**1020
_DEFER_K_MAX = 2**40


def _top(u) -> float:
    """|u|_inf of a finite vector, and 0 for None."""
    return 0.0 if u is None else max(map(abs, u.tolist()), default=0.0)


def _rows_stay_finite(spec: SequenceSpec, limit, rows: list[_EvidenceRow]) -> bool:
    """Can no vector of the `rows`, and no term of the bound, overflow? Only
    then may the rows wait for their first read: their check at the call
    could not fail.

    The rows must be the verdicts' own (`_offset`, given a limit, `_term`
    and `_doubling_gap`), whose vectors the spec and the limit bound; any
    other `vector_at` is built and checked at the call. With x the base
    (0 for none), v the direction (0 for a constant), c the coefficient (1
    for a divergent sequence), k_max the largest sampled k and K = 2·k_max
    for a divergent sequence (x_{2k} = 2k v) and 1 otherwise (|k**-p| <= 1,
    |(-1)**k| = 1), every term x_k, 2k included, is at most |x|∞ +
    |c|·|v|∞·K in each entry, so every offset x_k - limit, doubling gap
    x_{2k} - x_k and bound's term (x, v, x +- c v) is at most B = 2·(|x|∞ +
    |c|·|v|∞·K + |limit|∞), up to a few roundings of relative size 2**-53,
    in each entry. The rows wait when k_max <= 2**40, so `float(k)` is
    exact and cannot raise, and B, computed in floats (an overflow to inf
    fails the test), is at most 2**1020: every entry then stays below
    2**1021, a factor 8 under the largest double. All the inputs are
    finite already: the spec's vectors and coefficient when it was made,
    the limit by the call."""
    known = (_term, _doubling_gap) if limit is None else (_offset, _term, _doubling_gap)
    if not all(row.vector_at in known for row in rows):
        return False
    k_max = max((k for row in rows for k in row.ks), default=1)
    if k_max > _DEFER_K_MAX:
        return False
    if spec.kind is SequenceKind.DIVERGENT_LINEAR:
        reach = 2.0 * k_max * _top(spec.direction)
    elif spec.kind is SequenceKind.CONSTANT:
        reach = 0.0
    else:
        reach = abs(spec.coefficient) * _top(spec.direction)
    return 2.0 * (_top(spec.base) + reach + _top(limit)) <= _DEFER_BELOW


def _trace_points(pairs, selection: NormSelection, values=None, columns=None) -> tuple[TracePoint, ...]:
    """Trace points (k, s, classm_norm(x, s)) of (k, class-1 value list)
    pairs, or of (k, u.tobytes()) pairs read through an analytic call's
    `values` under its `columns`, subset by subset: the one evidence
    builder, which a verdict calls on the first read of its `evidence`.
    Each value is summed as `Profile.value` sums it."""
    if values is not None:
        pairs = [(k, values[key, columns]) for k, key in pairs]
    return tuple(TracePoint(k, s, _subset_sum(terms, s)) for s in selection.subsets for k, terms in pairs)


# Each analytic verdict is built from the sequence's traces, its conclusion,
# read once over the traces' columns, which are the selection's, and the
# evidence row it samples, for one selection, which it keeps with the call's
# value map and column set as the source of its evidence. The public
# verdicts and every row of equivalence_matrix go through these three; a
# table reads each conclusion once and passes it to all its rows. A
# BOUNDED row keeps its bound's terms and the selection's subsets as the
# source of its bound, which the first read takes subset by subset, by
# Python's max in the selection's order, which fixes where a NaN term
# ranks.


def _convergence_row(traces: AnalyticTraces, pairs, selection: NormSelection, converges: bool) -> Verdict:
    source = (pairs, selection, traces._values, traces._columns)
    if converges:
        return Verdict(Conclusion.CONVERGES, Method.ANALYTIC, limit=traces.limit, _source=source)
    return Verdict(Conclusion.DIVERGES, Method.ANALYTIC, _source=source)


def _boundedness_row(traces: AnalyticTraces, pairs, selection: NormSelection, bounded: bool) -> Verdict:
    source = (pairs, selection, traces._values, traces._columns)
    if not bounded:
        return Verdict(Conclusion.UNBOUNDED, Method.ANALYTIC, _source=source)
    if not traces._bounds_finite:
        raise ValueError(NON_FINITE)
    return Verdict(Conclusion.BOUNDED, Method.ANALYTIC, bound=_BoundTerms((*traces._bound_terms, selection.subsets)), _source=source)


def _cauchy_row(traces: AnalyticTraces, pairs, selection: NormSelection, cauchy: bool) -> Verdict:
    conclusion = Conclusion.CAUCHY if cauchy else Conclusion.NOT_CAUCHY
    return Verdict(conclusion, Method.ANALYTIC, _source=(pairs, selection, traces._values, traces._columns))


def _decays(series: list[float], floor: float) -> bool:
    """Sampled trend rule: every sample is finite, and either every one is
    at zero scale (at most `floor`), or there are at least three,
    nonincreasing up to `floor`, and the last is at zero scale or a quarter
    of the first. A NaN or an infinity never decays: inf <= 0.25 * inf
    holds, and a NaN compares false.

    The floor is a tolerance on the samples, taken from the vectors the
    series is measured against, never from the series itself: for Cauchy,
    `SPAN_DECISION_REL` of x_1's summed scale over s; for boundedness, the
    largest such floor of the table's entries. A table whose entries differ
    by one ulp has gaps at zero scale against its entries, but a floor
    taken from the gaps' own scales would hold them to their own rounding
    and find them not decaying.
    """
    if not all(map(math.isfinite, series)):
        return False
    if series and all(v <= floor for v in series):
        return True
    nonincreasing = all(a >= b - floor for a, b in zip(series, series[1:]))
    return nonincreasing and len(series) >= 3 and (series[-1] <= 0.25 * series[0] or series[-1] <= floor)


def _rises(series: list[float], floor: float) -> bool:
    """Does the later half of a trace exceed the earlier half's maximum by
    more than `floor`? A table of one entry has no later half."""
    half = (len(series) + 1) // 2
    return max(series[half:], default=-math.inf) > max(series[:half]) + floor


def _steps(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """The successive gaps x_{k_{i+1}} - x_{k_i} of a table's entries, under
    one guard: a gap that overflowed is named non-finite where it is
    profiled, with no numpy warning on the way."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [b - a for a, b in zip(vectors, vectors[1:])]


def _sampled(conclusion, ks, profiles: list[Profile], selection: NormSelection, limit=None) -> Verdict:
    """The one constructor of a sampled verdict: `conclusion` over the
    window (ks[0], ks[-1]), or INCONCLUSIVE, with no limit or bound, for
    None. The evidence source pairs the ks, in order, with the profiles'
    class-1 value lists, so a table's L - 1 gaps take the first L - 1 ks. A
    BOUNDED verdict's bound is the largest evidence value, and at least 0;
    one whose values include a NaN or an infinity is INCONCLUSIVE, since
    neither lies below a finite bound."""
    pairs = list(zip(ks, [p._value_list for p in profiles]))
    bound = None
    if conclusion is Conclusion.BOUNDED:
        values = [_subset_sum(terms, s) for s in selection.subsets for _, terms in pairs]
        bound = max([0.0] + values)
        if not all(map(math.isfinite, values)):
            conclusion = None
    if conclusion is None:
        conclusion, limit, bound = Conclusion.INCONCLUSIVE, None, None
    return Verdict(conclusion, Method.SAMPLED, limit=limit, bound=bound, window=(ks[0], ks[-1]), _source=(pairs, selection))


def _columns(frame: Frame, selection: NormSelection) -> tuple[int, ...]:
    """The sorted frame indices a selection reads, once its arity is checked
    against the frame's."""
    if selection.n != frame.n:
        raise DimensionMismatch("selection arity", frame.n, selection.n)
    return tuple(sorted(selection.union()))


def _require_limit(candidate_limit) -> None:
    """Convergence is to a candidate limit: refuse None before any trace."""
    if candidate_limit is None:
        raise ValueError("convergence needs a candidate limit, got None")


def converges_wrt(
    spec: SequenceSpec,
    frame: Frame,
    norm: NNorm,
    selection: NormSelection,
    candidate_limit,
    evidence_ks: Sequence[int] = DEFAULT_EVIDENCE_KS,
) -> Verdict:
    """Does the sequence converge to the candidate limit with respect to the
    selected quotient norms?

    Closed-form kinds get an exact Analytic verdict from the per-subset trace
    limits; note that a selection violating the covering condition can
    genuinely declare a divergent sequence convergent (that is the point of
    the covering analysis, not a defect). Custom tables get a Sampled verdict:
    Converges only when every subset trace is nonincreasing and decays to a
    quarter of its starting value (or sits at zero scale); otherwise
    Inconclusive. A sampled CONVERGES is evidence from a finite window, not
    a proof. A candidate limit of None raises a ValueError that names it,
    before any trace is made, on either branch.

    Each distinct vector is profiled once per call, so an injected evaluator
    is called once per distinct (vector, requested column) pair, over the
    call and the read of its evidence together. For a closed form the call
    profiles the traces, and the verdict keeps its evidence vectors as
    bytes with the call's value map: a vector that a trace is under the
    requested columns takes the trace's values, and the others are profiled
    through the map on the first read of `evidence`, where their evaluator
    calls and errors (such as `ScaleOutOfRange`) then fall. An evidence
    vector that overflowed is named non-finite by the call. When the spec,
    the limit and the evidence_ks bound every evidence vector below the
    double range (`AnalyticTraces`: 2·(|x|∞ + |c|·|v|∞·K + |limit|∞) <=
    2**1020 and every k <= 2**40), none can overflow, and the offsets
    themselves are computed on that first read; otherwise the call computes
    and checks them. The verdict's `limit` is the call's read-only copy.
    """
    columns = _columns(frame, selection)
    _require_limit(candidate_limit)
    if spec.kind is not SequenceKind.CUSTOM:
        traces = AnalyticTraces(spec, frame, norm, candidate_limit, [(evidence_ks, _offset)], columns)
        return _convergence_row(traces, traces.evidence[0], selection, traces._limit_zero(columns))

    _check_spec(spec, frame, norm)
    limit = as_vector(candidate_limit, frame.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = [v - limit for _, v in spec.table]
    profiles = _profiles(frame, norm, offsets, columns, {})
    decays = all(_decays([p.value(s) for p in profiles], max(p.floor(s) for p in profiles)) for s in selection.subsets)
    return _sampled(Conclusion.CONVERGES if decays else None, [k for k, _ in spec.table], profiles, selection, limit)


def is_cauchy_wrt(
    spec: SequenceSpec,
    frame: Frame,
    norm: NNorm,
    selection: NormSelection,
    evidence_ks: Sequence[int] = DEFAULT_EVIDENCE_KS,
) -> Verdict:
    """Cauchy verdict with respect to the selected quotient norms.

    Evidence rows sample the doubled-index differences x_{2k} - x_k, which
    expose both decay and linear growth. For custom tables the verdict is
    Sampled: Cauchy when the successive gaps x_{k_{i+1}} - x_{k_i} decay
    (`_decays`, at the floor of x_1), otherwise Inconclusive. The evidence
    holds one point (k_i, s, gap value) per gap and subset: L - 1 per
    subset for a table of L entries. A table whose gaps stay level, as a
    tabulated linear sequence's do, is Inconclusive.

    A sampled CAUCHY is evidence, not proof: the partial sums of 1/k have
    gaps 1/k, which pass that rule on any table of eight or more terms from
    k = 1, yet the sums diverge. Each distinct vector, x_1 and the gaps
    together, is profiled once per call, so an injected evaluator is called
    once per distinct (vector, requested column) pair; equal successive
    entries give one zero gap. For a closed form the doubling gaps are profiled as
    `converges_wrt` profiles its offsets: through the call's value map on
    the first read of `evidence`, unless a trace is the gap (a divergent
    sequence's x_2 - x_1), and computed, or checked for overflow at the
    call, under the bound `converges_wrt` states.
    """
    columns = _columns(frame, selection)
    if spec.kind is not SequenceKind.CUSTOM:
        traces = AnalyticTraces(spec, frame, norm, evidence=[(evidence_ks, _doubling_gap)], columns=columns)
        return _cauchy_row(traces, traces.evidence[0], selection, _subset_all(traces._cauchy_flags, columns))

    _check_spec(spec, frame, norm)
    vectors = [v for _, v in spec.table]
    first, *gaps = _profiles(frame, norm, vectors[:1] + _steps(vectors), columns, {})
    decays = all(_decays([g.value(s) for g in gaps], first.floor(s)) for s in selection.subsets)
    return _sampled(Conclusion.CAUCHY if decays else None, [k for k, _ in spec.table], gaps, selection)


def is_bounded_wrt(
    points_or_spec,
    frame: Frame,
    norm: NNorm,
    selection: NormSelection,
    evidence_ks: Sequence[int] = DEFAULT_EVIDENCE_KS,
) -> Verdict:
    """Boundedness verdict for a finite point set or a sequence spec.

    A finite point set is Bounded, with witness M the exact maximum over
    points and subsets. Closed-form specs get an Analytic verdict from the
    trace formula. A custom table is a finite window on a sequence, so it
    gets a Sampled verdict: Bounded, with M as for a point set, when no
    subset's trace rises (the later half of the trace stays within the
    largest entry floor of the earlier half's maximum), or when the
    successive gaps of every trace that rises decay (`_decays`, at the
    same floor); otherwise Inconclusive, with no bound. A point set or
    table whose values include a NaN or an infinity (an injected
    evaluator's) is Inconclusive, with no bound: neither lies below a
    finite bound. The evidence holds the points' or entries' values, built
    on first read as every verdict builds it, subset by subset. A sampled
    BOUNDED on a table is evidence, not proof: the partial sums of 1/k
    pass, as they pass as Cauchy.

    Each distinct point, entry or gap is profiled once per call, so an
    injected evaluator is called once per distinct (vector, requested
    column) pair; the gaps are profiled only when a trace rises. For a
    closed form the terms are profiled as `converges_wrt` profiles its
    offsets: through the call's value map on the first read of `evidence`,
    unless a trace or a bound's term is the term under the requested
    columns (a constant's x, an oscillation's x +- c v), profiled on the
    first read of either. A BOUNDED verdict's `bound` is computed on its
    first read, through the same map, where a term's evaluator calls and
    errors (such as `ScaleOutOfRange`) then fall; a term that overflowed is
    named non-finite by the call. The terms x_k are computed, or checked
    for overflow at the call, under the bound `converges_wrt` states.
    """
    columns = _columns(frame, selection)
    if not isinstance(points_or_spec, SequenceSpec):
        points = [as_vector(p, frame.dim) for p in points_or_spec]
        if not points:
            raise ValueError("boundedness needs a nonempty point set")
        _check_compatible(frame, norm)
        profiles = _profiles(frame, norm, points, columns, {})
        return _sampled(Conclusion.BOUNDED, range(1, len(points) + 1), profiles, selection)
    spec = points_or_spec
    if spec.kind is not SequenceKind.CUSTOM:
        traces = AnalyticTraces(spec, frame, norm, evidence=[(evidence_ks, _term)], columns=columns)
        return _boundedness_row(traces, traces.evidence[0], selection, _subset_all(traces._bounded_flags, columns))
    _check_spec(spec, frame, norm)
    points = [v for _, v in spec.table]
    memo = {}
    profiles = _profiles(frame, norm, points, columns, memo)
    floors = [(s, max(p.floor(s) for p in profiles)) for s in selection.subsets]
    rising = [(s, floor) for s, floor in floors if _rises([p.value(s) for p in profiles], floor)]
    gaps = _profiles(frame, norm, _steps(points), columns, memo) if rising else []
    bounded = all(_decays([g.value(s) for g in gaps], floor) for s, floor in rising)
    return _sampled(Conclusion.BOUNDED if bounded else None, [k for k, _ in spec.table], profiles, selection)


_QUESTIONS = ("convergence", "boundedness", "cauchy")


@dataclass(frozen=True, init=False)
class EquivalenceRow:
    m: int
    convergence: Verdict
    boundedness: Verdict
    cauchy: Verdict

    def __init__(self, m, convergence, boundedness, cauchy):
        state = self.__dict__
        state["m"], state["convergence"], state["boundedness"], state["cauchy"] = m, convergence, boundedness, cauchy


@dataclass(frozen=True, init=False)
class EquivalenceTable:
    rows: tuple[EquivalenceRow, ...]

    def __init__(self, rows):
        self.__dict__["rows"] = rows

    def conclusions(self, which: str) -> list[Conclusion]:
        """The rows' conclusions on one question: "convergence",
        "boundedness" or "cauchy"; any other name raises a ValueError."""
        if which not in _QUESTIONS:
            raise ValueError(f"no question {which!r}; expected one of {', '.join(_QUESTIONS)}")
        return [getattr(row, which).conclusion for row in self.rows]

    def agrees(self) -> bool:
        return all(len(set(self.conclusions(which))) == 1 for which in _QUESTIONS)


def equivalence_matrix(spec: SequenceSpec, frame: Frame, norm: NNorm, candidate_limit) -> EquivalenceTable:
    """Convergence, boundedness, and Cauchy verdicts against the FULL class-m
    collection for every m = 1..n. The cross-class equivalences require each
    column to agree across rows; the test suite asserts exactly that.

    Row m equals what converges_wrt, is_bounded_wrt and is_cauchy_wrt give on
    full_selection(n, m) with evidence_ks=(1, 10). Every row reads the same
    traces and the same evidence profiles, taken once per table: a class-m
    norm is a sum of class-1 norms, so the rows differ only in the sums.
    The table reads its convergence, Cauchy and boundedness conclusions
    once each, over 1..n, the union of every full collection's subsets (the
    union rule, the covering identity acceptance criterion 5 checks), and
    gives them to all n rows, so the rows agree on every conclusion by
    construction; each row keeps its own verdicts, and its bound is the
    max, over its subsets in order, of the one per-kind formula.
    The table profiles only its traces. Every verdict keeps the bytes of its
    row's evidence vectors and the table's one value map, and a BOUNDED
    boundedness verdict the keys of its bound's terms; the first read of a
    verdict's `evidence` or `bound` profiles, through the map, the vectors
    it reads that no trace or earlier read profiled, and builds its trace
    points or its bound. So a caller that reads only the conclusions
    profiles no other vector, computes no bound and builds no trace point,
    and one that reads every row makes the evaluator calls an eager build
    made. The three evidence rows (x_k - limit, x_k, x_{2k} - x_k at k = 1
    and 10) are computed at the call, where one that overflowed is named
    non-finite, unless 2·(|x|∞ + |c|·|v|∞·K + |limit|∞) <= 2**1020 (K = 20
    for a divergent sequence, 1 otherwise) proves that none can overflow;
    then each is computed on the first read of an `evidence` that samples
    it, once for all n rows. A candidate limit of None raises as it does in
    `converges_wrt`.
    """
    if spec.kind is SequenceKind.CUSTOM:
        raise ValueError("equivalence matrix needs a closed-form sequence")
    _require_limit(candidate_limit)
    traces = AnalyticTraces(spec, frame, norm, candidate_limit, [((1, 10), vector_at) for vector_at in (_offset, _term, _doubling_gap)])
    offsets, terms, gaps = traces.evidence
    # every full selection covers 1..n, so each conclusion is read once
    every = traces._columns
    converges, bounded, cauchy = traces._limit_zero(every), _subset_all(traces._bounded_flags, every), _subset_all(traces._cauchy_flags, every)
    rows = []
    for m in range(1, frame.n + 1):
        sel = full_selection(frame.n, m)
        verdicts = (
            _convergence_row(traces, offsets, sel, converges),
            _boundedness_row(traces, terms, sel, bounded),
            _cauchy_row(traces, gaps, sel, cauchy),
        )
        rows.append(EquivalenceRow(m, *verdicts))
    return EquivalenceTable(tuple(rows))


# ---------------------------------------------------------------------------
# covering combinatorics


def covering_check(selection: NormSelection) -> bool:
    """Does the union of the selected index sets cover {1..n}?"""
    # the selection is the one family of its own size
    return any(_covering_families(selection.n, selection.subsets, len(selection.subsets)))


def _covering_families(n: int, members: Sequence[IndexSet], size: int):
    """The families of `size` of the index sets `members` (within 1..n)
    that cover 1..n, as tuples, in `combinations` order. The one covering
    rule: a family covers when the OR of its index sets' bitmasks (bit j-1
    for index j) is the full mask, so no selection is built for a family
    that does not cover."""
    full = (1 << n) - 1
    masks = [sum(1 << (j - 1) for j in s.indices) for s in members]
    for family, family_masks in zip(combinations(members, size), combinations(masks, size)):
        if reduce(or_, family_masks, 0) == full:
            yield family


def _cover_shape(n, m) -> tuple[int, int, int]:
    """(n, m, least cover size) for whole numbers 1 <= m <= n; a size that
    is not a whole number raises a ValueError naming it."""
    n, m = _class_shape(n, m)
    return n, m, -(-n // m)


def minimal_cover_size(n: int, m: int) -> int:
    """Least number of size-m subsets whose union can cover {1..n}."""
    return _cover_shape(n, m)[2]


ENUMERATION_LIMIT = 7


def enumerate_minimal_covers(n: int, m: int) -> list[NormSelection]:
    """All families of exactly minimal_cover_size(n, m) size-m subsets whose
    union covers {1..n}, deduplicated up to family order, in `combinations`
    order of the class collection. Guarded to n <= 7: beyond that the family
    space explodes.

    Each candidate family is tried by the bitmask rule `covering_check`
    applies (`_covering_families`), and a `NormSelection` is built only for
    a family that covers."""
    n, m, size = _cover_shape(n, m)
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is guarded to n <= {ENUMERATION_LIMIT}, got n={n}")
    return [NormSelection(n=n, subsets=family) for family in _covering_families(n, class_collection(n, m).members, size)]


# ---------------------------------------------------------------------------
# closed-set probe


@dataclass(frozen=True)
class ClosedSetEntry:
    spec: SequenceSpec
    limit: np.ndarray
    limit_in_set: bool


@dataclass(frozen=True)
class ClosedSetReport:
    entries: tuple[ClosedSetEntry, ...]
    sampled_ks: tuple[int, ...]

    @property
    def witnesses(self) -> tuple[ClosedSetEntry, ...]:
        """Entries whose limit escaped the set: each one falsifies closedness."""
        return tuple(e for e in self.entries if not e.limit_in_set)

    @property
    def all_limits_inside(self) -> bool:
        return not self.witnesses


def closed_set_probe(
    specs: Sequence[SequenceSpec],
    membership: Callable[[np.ndarray], bool],
    sample_ks: Sequence[int] = tuple(range(1, 51)),
) -> ClosedSetReport:
    """Sampled falsification probe for closedness of a set K given by a
    membership predicate.

    Every spec must converge (closed form) and have all sampled terms inside
    K; the report then says, per spec, whether the limit stayed in K. A
    failing entry is a witness that K is not closed; an all-clear is never a
    proof of closedness.
    """
    entries = []
    ks = tuple(_index(k) for k in sample_ks)
    for spec in specs:
        limit = natural_limit(spec)
        if limit is None:
            raise ValueError(f"sequence kind {spec.kind.value} does not converge; the probe needs limits")
        for k in ks:
            if not membership(eval_sequence(spec, k)):
                raise ValueError(f"sequence term k={k} is outside the set; the probe samples inside K")
        entries.append(ClosedSetEntry(spec=spec, limit=limit, limit_in_set=bool(membership(limit))))
    return ClosedSetReport(entries=tuple(entries), sampled_ks=ks)


# ---------------------------------------------------------------------------
# the R^5 demonstration


@dataclass(frozen=True)
class CounterexampleRecord:
    """Trace table and paired verdicts for the sequence x_k = k e_5 in R^5.

    Removing {1,2} or {3,4} keeps e_5 in the kept span, so those traces are
    identically zero and the two-norm selection wrongly reports convergence;
    the {1,5} trace equals k and exposes the divergence once added.
    """

    k_max: int
    rows: tuple[tuple[int, float, float, float], ...]  # (k, value_12, value_34, value_15)
    noncovering_selection: NormSelection
    covering_selection: NormSelection
    noncovering_covers: bool
    covering_covers: bool
    noncovering_verdict: Verdict
    covering_verdict: Verdict

    @property
    def traces(self) -> tuple[TracePoint, ...]:
        subsets = (*self.noncovering_selection.subsets, self.covering_selection.subsets[-1])  # {1,2}, {3,4}, {1,5}
        return tuple(TracePoint(k, s, value) for k, *values in self.rows for s, value in zip(subsets, values))


def counterexample_r5(k_max: int = 100) -> CounterexampleRecord:
    """Reproduce the R^5 demonstration: x_k = (0,0,0,0,k) for k = 1..k_max
    against the standard basis frame of R^5, identity metric, the only
    frame it runs on. A k_max that is not a whole number raises a
    ValueError naming it."""
    k_max = _index(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    frame = standard_frame(SpaceConfig(dim=5, arity=5))
    norm = standard_nnorm(frame.space)
    spec = divergent_linear(np.eye(5)[4])
    s12, s34, s15 = IndexSet((1, 2)), IndexSet((3, 4)), IndexSet((1, 5))
    noncovering = NormSelection(n=5, subsets=(s12, s34))
    covering = NormSelection(n=5, subsets=(s12, s34, s15))
    zero = np.zeros(5)
    terms = [_eval(spec, k) for k in range(1, k_max + 1)]
    profiles = _profiles(frame, norm, terms, (1, 2, 3, 4, 5), {})
    rows = [(k, p.value(s12), p.value(s34), p.value(s15)) for k, p in enumerate(profiles, 1)]
    return CounterexampleRecord(
        k_max=k_max,
        rows=tuple(rows),
        noncovering_selection=noncovering,
        covering_selection=covering,
        noncovering_covers=covering_check(noncovering),
        covering_covers=covering_check(covering),
        noncovering_verdict=converges_wrt(spec, frame, norm, noncovering, zero, evidence_ks=(1, k_max)),
        covering_verdict=converges_wrt(spec, frame, norm, covering, zero, evidence_ks=(1, k_max)),
    )


# ---------------------------------------------------------------------------
# trace CSV round-trip


def emit_trace_csv(points: Sequence[TracePoint]) -> str:
    """CSV with columns (k, subset, value); values use repr so parsing them
    back recovers the floats exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "subset", "value"])
    writer.writerows([p.k, ",".join(str(i) for i in p.subset.indices), repr(p.value)] for p in points)
    return buf.getvalue()


def parse_trace_csv(text: str) -> tuple[TracePoint, ...]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["k", "subset", "value"]:
        raise ValueError(f"unexpected trace header: {header}")
    rows = [row for row in reader if row]  # a blank line is no point
    return tuple(TracePoint(int(k), IndexSet(int(i) for i in subset.split(",")), float(value)) for k, subset, value in rows)
