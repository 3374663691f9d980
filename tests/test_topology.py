import json
import math

import numpy as np
import pytest

from nnormkit.linalg import DimensionMismatch, SpaceConfig
from nnormkit.nnorm import NNorm, standard_nnorm, standard_norm
from nnormkit.quotient import IndexSet, classm_norm, random_frame, standard_frame
from nnormkit.topology import (
    Conclusion,
    Method,
    NormSelection,
    SequenceKind,
    SequenceSpec,
    TracePoint,
    closed_set_probe,
    constant,
    convergent_power,
    converges_wrt,
    counterexample_r5,
    covering_check,
    custom_sequence,
    divergent_linear,
    emit_trace_csv,
    enumerate_minimal_covers,
    equivalence_matrix,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    minimal_cover_size,
    natural_limit,
    oscillating,
    parse_trace_csv,
    zero_profile,
)

from corpus import build_corpus
from oracles import enumerate_covers_bruteforce, exhaustive_min_cover_size


def space(n, d):
    cfg = SpaceConfig(dim=d, arity=n)
    return cfg, standard_frame(cfg), standard_nnorm(cfg)


class TestSequenceSpec:
    def test_divergent_linear_fifth_axis(self):
        spec = divergent_linear(np.eye(5)[4])
        assert np.array_equal(eval_sequence(spec, 7), [0, 0, 0, 0, 7])

    def test_constant_any_k(self):
        x = np.array([1.0, -2.0])
        spec = constant(x)
        for k in (1, 5, 1000):
            assert np.array_equal(eval_sequence(spec, k), x)

    def test_power_decay(self):
        spec = convergent_power(np.zeros(3), np.eye(3)[0], coefficient=1.0, exponent=1.0)
        assert np.array_equal(eval_sequence(spec, 4), [0.25, 0.0, 0.0])

    def test_oscillating_alternates(self):
        spec = oscillating(np.zeros(2), np.array([1.0, 0.0]), coefficient=0.5)
        assert np.array_equal(eval_sequence(spec, 1), [-0.5, 0.0])
        assert np.array_equal(eval_sequence(spec, 2), [0.5, 0.0])

    def test_sequences_start_at_one(self):
        spec = constant(np.zeros(2))
        with pytest.raises(ValueError):
            eval_sequence(spec, 0)

    def test_custom_window(self):
        spec = custom_sequence([(1, np.zeros(2)), (3, np.ones(2))])
        assert np.array_equal(eval_sequence(spec, 3), [1.0, 1.0])
        with pytest.raises(ValueError):
            eval_sequence(spec, 2)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            divergent_linear(np.zeros(3))

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            convergent_power(np.zeros(2), np.ones(2), exponent=0.0)

    def test_custom_table_must_increase(self):
        with pytest.raises(ValueError):
            custom_sequence([(2, np.zeros(2)), (2, np.ones(2))])

    def test_a_mapping_table_is_read_through_its_items(self):
        # a mapping raised TypeError: cannot unpack non-iterable int object
        v, w = np.zeros(2), np.ones(2)
        spec = custom_sequence({1: v, 3: w})
        assert [k for k, _ in spec.table] == [1, 3]
        assert np.array_equal(eval_sequence(spec, 3), w)
        with pytest.raises(ValueError, match="strictly increasing"):
            custom_sequence({3: w, 1: v})

    @pytest.mark.parametrize("table", [[1, 2], [(1,)], [(1, np.zeros(2), np.ones(2))], [(1, np.zeros(2)), 2]])
    def test_an_item_that_is_not_a_pair_is_named(self, table):
        # [1, 2] raised TypeError and [(1,)] "not enough values to unpack"
        with pytest.raises(ValueError, match=r"\(k, vector\) pairs"):
            custom_sequence(table)

    def test_a_json_table_item_that_is_not_a_pair_is_named(self):
        with pytest.raises(ValueError, match=r"\(k, vector\) pairs"):
            SequenceSpec.from_json({"kind": "custom", "table": [[1]]})

    def test_a_non_integral_table_index_is_named_not_truncated(self):
        v, w = np.zeros(2), np.ones(2)
        with pytest.raises(ValueError, match="index 1.5 is not an integer"):
            custom_sequence([(1.5, v), (2.5, w)])
        # strictly increasing as floats, both k = 1 once truncated
        with pytest.raises(ValueError, match="index 1.2 is not an integer"):
            SequenceSpec(kind=SequenceKind.CUSTOM, table=((1.2, v), (1.7, w)))
        with pytest.raises(ValueError, match="index 2.5 is not an integer"):
            SequenceSpec.from_json({"kind": "custom", "table": [[1, [0.0, 0.0]], [2.5, [1.0, 1.0]]]})
        spec = custom_sequence([(1.0, v), (np.int64(3), w)])
        assert [k for k, _ in spec.table] == [1, 3]
        assert all(type(k) is int for k, _ in spec.table)

    def test_a_non_integral_k_is_named_not_truncated(self):
        # eval_sequence took k = 1.5 and returned the term there
        x, v = np.zeros(2), np.ones(2)
        specs = [convergent_power(x, v), divergent_linear(v), oscillating(x, v), constant(x), custom_sequence([(1, x), (2, v)])]
        for spec in specs:
            with pytest.raises(ValueError, match="k 1.5 is not an integer"):
                eval_sequence(spec, 1.5)
            assert np.array_equal(eval_sequence(spec, 2.0), eval_sequence(spec, 2))

    def test_natural_limits(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(natural_limit(constant(x)), x)
        assert np.array_equal(natural_limit(convergent_power(x, np.ones(2))), x)
        assert natural_limit(divergent_linear(np.ones(2))) is None
        assert natural_limit(oscillating(x, np.ones(2), coefficient=1.0)) is None
        assert np.array_equal(natural_limit(oscillating(x, np.ones(2), coefficient=0.0)), x)

    def test_json_round_trip_all_kinds(self):
        specs = [
            convergent_power(np.ones(3), np.eye(3)[1], coefficient=-0.5, exponent=1.5),
            divergent_linear(np.eye(3)[2]),
            oscillating(np.zeros(3), np.ones(3), coefficient=2.0),
            constant(np.array([0.5, -0.5, 0.0])),
            custom_sequence([(1, np.zeros(3)), (4, np.ones(3))]),
        ]
        for spec in specs:
            again = SequenceSpec.from_json(json.loads(json.dumps(spec.to_json())))
            assert again.kind == spec.kind
            for k in (1, 4):
                try:
                    expected = eval_sequence(spec, k)
                except ValueError:
                    with pytest.raises(ValueError):
                        eval_sequence(again, k)
                    continue
                assert np.array_equal(eval_sequence(again, k), expected)

    def test_a_json_non_object_is_named(self):
        with pytest.raises(ValueError, match=r"sequence spec must be a mapping, got \[1\]"):
            SequenceSpec.from_json([1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_coefficient_is_named(self, bad):
        # it was accepted, and every verdict on it raised from inside a profile
        x, v = np.zeros(2), np.ones(2)
        doc = {"kind": "oscillating", "base": [0.0, 0.0], "direction": [1.0, 1.0], "coefficient": bad}
        calls = [
            lambda: convergent_power(x, v, coefficient=bad),
            lambda: oscillating(x, v, coefficient=bad),
            lambda: SequenceSpec(kind=SequenceKind.DIVERGENT_LINEAR, direction=v, coefficient=bad),
            lambda: SequenceSpec.from_json(doc),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"coefficient must be finite, got {bad}"):
                call()


class TestNormSelection:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            NormSelection(n=4, subsets=(IndexSet([1]), IndexSet([1, 2])))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            NormSelection(n=4, subsets=(IndexSet([1, 2]), IndexSet([1, 2])))

    def test_full_selection_counts(self):
        assert len(full_selection(5, 2).subsets) == 10

    def test_json_round_trip(self):
        sel = NormSelection(n=5, subsets=(IndexSet([1, 2]), IndexSet([3, 4])))
        assert NormSelection.from_json(json.loads(json.dumps(sel.to_json()))) == sel

    def test_non_integral_indices_in_json_are_rejected(self):
        with pytest.raises(ValueError, match="index 1.9 is not an integer"):
            NormSelection.from_json({"n": 3, "subsets": [[1.9], [2.2]]})

    def test_a_non_integral_arity_is_rejected(self):
        # n 2.5 was kept, and covering_check then raised a TypeError
        subsets = (IndexSet([1]), IndexSet([2]))
        with pytest.raises(ValueError, match="n 2.5 is not an integer"):
            NormSelection(n=2.5, subsets=subsets)
        selection = NormSelection(n=2.0, subsets=subsets)
        assert selection == NormSelection(n=2, subsets=subsets) and type(selection.n) is int
        assert covering_check(selection)
        assert full_selection(3.0, 2) == full_selection(3, 2)
        with pytest.raises(ValueError, match="m 1.5 is not an integer"):
            full_selection(3, 1.5)

    def test_a_non_integral_arity_in_json_is_rejected(self):
        with pytest.raises(ValueError, match="n 3.5 is not an integer"):
            NormSelection.from_json({"n": 3.5, "subsets": [[1], [2]]})
        assert NormSelection.from_json({"n": 3.0, "subsets": [[1], [2]]}).n == 3

    def test_a_json_non_object_is_named(self):
        with pytest.raises(ValueError, match=r"norm selection must be a mapping, got \[1\]"):
            NormSelection.from_json([1])


def _always_inf_on_k_e3():
    # every value inf: inf <= 0.25 * inf holds, so an unguarded trend rule
    # read the trace, and its gaps, as decaying
    cfg, frame, _ = space(2, 3)
    norm = NNorm(cfg, "injected", lambda vs: math.inf)
    return custom_sequence([(k, k * np.eye(3)[2]) for k in range(1, 7)]), frame, norm


class TestConvergesWrt:
    def test_convergent_power_all_classes(self):
        cfg, frame, norm = space(3, 4)
        x = np.array([0.5, -1.0, 0.25, 2.0])
        spec = convergent_power(x, np.array([1.0, 1.0, -1.0, 0.5]), coefficient=1.5, exponent=0.75)
        for m in (1, 2, 3):
            verdict = converges_wrt(spec, frame, norm, full_selection(3, m), x)
            assert verdict.conclusion is Conclusion.CONVERGES
            assert verdict.method is Method.ANALYTIC
            assert np.array_equal(verdict.limit, x)

    def test_r5_false_verdict_under_noncovering_selection(self):
        cfg, frame, norm = space(5, 5)
        spec = divergent_linear(np.eye(5)[4])
        noncovering = NormSelection(n=5, subsets=(IndexSet([1, 2]), IndexSet([3, 4])))
        verdict = converges_wrt(spec, frame, norm, noncovering, np.zeros(5))
        assert verdict.conclusion is Conclusion.CONVERGES  # false, by design of the selection

    def test_r5_divergence_exposed_by_third_norm(self):
        cfg, frame, norm = space(5, 5)
        spec = divergent_linear(np.eye(5)[4])
        sel = NormSelection(n=5, subsets=(IndexSet([1, 2]), IndexSet([3, 4]), IndexSet([1, 5])))
        verdict = converges_wrt(spec, frame, norm, sel, np.zeros(5), evidence_ks=(1, 2, 3))
        assert verdict.conclusion is Conclusion.DIVERGES
        s15 = IndexSet([1, 5])
        trace = {p.k: p.value for p in verdict.evidence if p.subset == s15}
        assert trace == {1: pytest.approx(1.0), 2: pytest.approx(2.0), 3: pytest.approx(3.0)}

    def test_wrong_limit_diverges(self):
        cfg, frame, norm = space(2, 3)
        x = np.array([1.0, 0.0, 0.0])
        spec = constant(x)
        verdict = converges_wrt(spec, frame, norm, full_selection(2, 1), x + np.array([0.0, 0.0, 1.0]))
        assert verdict.conclusion is Conclusion.DIVERGES

    def test_oscillating_does_not_converge(self):
        cfg, frame, norm = space(2, 2)
        x = np.zeros(2)
        spec = oscillating(x, np.array([1.0, 1.0]), coefficient=1.0)
        verdict = converges_wrt(spec, frame, norm, full_selection(2, 1), x)
        assert verdict.conclusion is Conclusion.DIVERGES

    def test_selection_arity_must_match(self):
        cfg, frame, norm = space(3, 4)
        with pytest.raises(DimensionMismatch):
            converges_wrt(constant(np.zeros(4)), frame, norm, full_selection(4, 2), np.zeros(4))

    def test_an_infinite_trace_does_not_converge(self):
        table, frame, norm = _always_inf_on_k_e3()
        verdict = converges_wrt(table, frame, norm, full_selection(2, 1), np.zeros(3))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.limit is None


def _counting_space(n, d):
    cfg, frame, _ = space(n, d)
    calls = []

    def evaluator(vs):
        calls.append(len(vs))
        return standard_norm(cfg, vs)

    return frame, NNorm(cfg, "injected", evaluator), calls


class TestMissingCandidateLimit:
    """A candidate limit of None is refused at the public boundary, with one
    error that names it, before any trace is made (no evaluator call)."""

    MESSAGE = "convergence needs a candidate limit, got None"

    @pytest.mark.parametrize("ks", [(1, 2, 5, 10, 100), ()], ids=["default-ks", "no-ks"])
    def test_closed_form(self, ks):
        frame, norm, calls = _counting_space(2, 3)
        spec = convergent_power(np.ones(3), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match=self.MESSAGE):
            converges_wrt(spec, frame, norm, full_selection(2, 1), None, evidence_ks=ks)
        assert calls == []

    def test_custom_table(self):
        frame, norm, calls = _counting_space(2, 3)
        spec = custom_sequence([(1, np.ones(3)), (2, np.ones(3))])
        with pytest.raises(ValueError, match=self.MESSAGE):
            converges_wrt(spec, frame, norm, full_selection(2, 1), None)
        assert calls == []

    def test_equivalence_matrix(self):
        frame, norm, calls = _counting_space(2, 3)
        with pytest.raises(ValueError, match=self.MESSAGE):
            equivalence_matrix(divergent_linear(np.array([0.0, 1.0, 1.0])), frame, norm, None)
        assert calls == []


class TestCauchyWrt:
    def test_an_infinite_trace_is_not_cauchy(self):
        table, frame, norm = _always_inf_on_k_e3()
        verdict = is_cauchy_wrt(table, frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE

    def test_convergent_power_is_cauchy(self):
        cfg, frame, norm = space(3, 5)
        spec = convergent_power(np.zeros(5), np.ones(5), coefficient=2.0, exponent=1.0)
        verdict = is_cauchy_wrt(spec, frame, norm, full_selection(3, 2))
        assert verdict.conclusion is Conclusion.CAUCHY

    def test_constant_all_traces_zero(self):
        cfg, frame, norm = space(2, 2)
        spec = constant(np.array([3.0, -1.0]))
        verdict = is_cauchy_wrt(spec, frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.CAUCHY
        assert all(p.value == 0.0 for p in verdict.evidence)

    def test_divergent_linear_not_cauchy(self):
        cfg, frame, norm = space(4, 4)
        spec = divergent_linear(np.array([1.0, 0.5, 0.0, -0.5]))
        verdict = is_cauchy_wrt(spec, frame, norm, full_selection(4, 2), evidence_ks=(1, 5))
        assert verdict.conclusion is Conclusion.NOT_CAUCHY
        # difference trace grows like |k - l| * classm_norm(v, s)
        s = verdict.evidence[0].subset
        v1 = classm_norm(frame, norm, spec.direction, s)
        got = {p.k: p.value for p in verdict.evidence if p.subset == s}
        assert got[1] == pytest.approx(1 * v1, rel=1e-9)
        assert got[5] == pytest.approx(5 * v1, rel=1e-9)

    def test_oscillating_not_cauchy(self):
        cfg, frame, norm = space(2, 3)
        spec = oscillating(np.zeros(3), np.array([0.0, 1.0, 0.0]), coefficient=1.0)
        verdict = is_cauchy_wrt(spec, frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.NOT_CAUCHY


def test_evidence_skips_indices_below_one():
    cfg, frame, norm = space(3, 4)
    spec = convergent_power(np.ones(4), np.eye(4)[3], coefficient=2.0)
    selection = full_selection(3, 2)
    ks = (-2, 0, 1, 10)
    verdicts = [
        converges_wrt(spec, frame, norm, selection, np.ones(4), evidence_ks=ks),
        is_cauchy_wrt(spec, frame, norm, selection, evidence_ks=ks),
        is_bounded_wrt(spec, frame, norm, selection, evidence_ks=ks),
    ]
    for verdict in verdicts:
        assert [p.k for p in verdict.evidence] == [1, 10] * len(selection.subsets)


def test_a_non_integral_evidence_index_is_named_not_truncated():
    # truncated, k = 1.5 gave evidence at k = 1
    cfg, frame, norm = space(3, 4)
    spec = convergent_power(np.ones(4), np.eye(4)[3], coefficient=2.0)
    selection = full_selection(3, 2)
    verdicts = [
        lambda ks: converges_wrt(spec, frame, norm, selection, np.ones(4), evidence_ks=ks),
        lambda ks: is_cauchy_wrt(spec, frame, norm, selection, evidence_ks=ks),
        lambda ks: is_bounded_wrt(spec, frame, norm, selection, evidence_ks=ks),
    ]
    for verdict in verdicts:
        with pytest.raises(ValueError, match="k 1.5 is not an integer"):
            verdict((1.5, 10))
        assert [p.k for p in verdict((1.0, 10.0)).evidence] == [1, 10] * len(selection.subsets)


class TestBoundedWrt:
    def test_finite_point_set_bounded_with_max_witness(self):
        cfg, frame, norm = space(2, 3)
        rng = np.random.default_rng(4)
        points = list(rng.uniform(-3, 3, (7, 3)))
        sel = full_selection(2, 1)
        verdict = is_bounded_wrt(points, frame, norm, sel)
        assert verdict.conclusion is Conclusion.BOUNDED
        expected = max(classm_norm(frame, norm, p, s) for p in points for s in sel.subsets)
        assert verdict.bound == expected

    def test_divergent_linear_unbounded(self):
        cfg, frame, norm = space(3, 3)
        verdict = is_bounded_wrt(divergent_linear(np.array([1.0, 1.0, 1.0])), frame, norm, full_selection(3, 1))
        assert verdict.conclusion is Conclusion.UNBOUNDED

    def test_divergent_linear_in_kept_span_is_bounded(self):
        cfg, frame, norm = space(2, 3)
        sel = NormSelection(n=2, subsets=(IndexSet([1]),))
        # direction along y_2: every coset w.r.t. removing y_1 is trivial
        verdict = is_bounded_wrt(divergent_linear(frame.row(2)), frame, norm, sel)
        assert verdict.conclusion is Conclusion.BOUNDED

    def test_convergent_power_bounded(self):
        cfg, frame, norm = space(3, 4)
        spec = convergent_power(np.ones(4), np.array([1.0, -1.0, 0.0, 2.0]), coefficient=3.0)
        verdict = is_bounded_wrt(spec, frame, norm, full_selection(3, 3))
        assert verdict.conclusion is Conclusion.BOUNDED
        assert verdict.bound >= max(p.value for p in verdict.evidence)

    def test_empty_point_set_rejected(self):
        cfg, frame, norm = space(2, 3)
        with pytest.raises(ValueError):
            is_bounded_wrt([], frame, norm, full_selection(2, 1))

    def test_a_nan_value_leaves_a_table_inconclusive(self):
        # NaN past the largest value 3: the later half of each trace is all
        # NaN, which reads as not rising, and a max from 0.0 skips it
        cfg, frame, _ = space(2, 3)

        def nan_above_three(vs):
            value = standard_norm(cfg, vs)
            return math.nan if value > 3.0 else value

        norm = NNorm(cfg, "injected", nan_above_three)
        table = custom_sequence([(k, k * np.eye(3)[2]) for k in range(1, 7)])
        verdict = is_bounded_wrt(table, frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.bound is None
        assert sum(math.isnan(p.value) for p in verdict.evidence) == 6

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_non_finite_value_leaves_a_point_set_inconclusive(self, value):
        cfg, frame, _ = space(2, 3)
        norm = NNorm(cfg, "injected", lambda vs: value)
        verdict = is_bounded_wrt([np.eye(3)[2], 2.0 * np.eye(3)[2]], frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.bound is None
        assert len(verdict.evidence) == 4


class TestEquivalenceMatrix:
    def test_all_kinds_agree_across_classes(self):
        cfg, frame, norm = space(4, 6)
        rng = np.random.default_rng(9)
        for entry in build_corpus(rng, 6, frame_rows=frame.vectors, per_kind=3):
            table = equivalence_matrix(entry.spec, frame, norm, entry.candidate_limit)
            assert table.agrees(), entry.spec.kind
            for which, expected in entry.expected.items():
                got = table.conclusions(which)[0]
                assert got is expected, (entry.spec.kind, which, got)

    def test_converges_implies_cauchy(self):
        cfg, frame, norm = space(3, 5)
        rng = np.random.default_rng(10)
        for entry in build_corpus(rng, 5, per_kind=3):
            table = equivalence_matrix(entry.spec, frame, norm, entry.candidate_limit)
            for row in table.rows:
                if row.convergence.conclusion is Conclusion.CONVERGES:
                    assert row.cauchy.conclusion is Conclusion.CAUCHY

    def test_custom_rejected(self):
        cfg, frame, norm = space(2, 2)
        spec = custom_sequence([(1, np.zeros(2))])
        with pytest.raises(ValueError):
            equivalence_matrix(spec, frame, norm, np.zeros(2))

    @pytest.mark.parametrize("which", ["m", "bogus", "rows"])
    def test_conclusions_name_an_unknown_question(self, which):
        cfg, frame, norm = space(2, 3)
        table = equivalence_matrix(constant(np.ones(3)), frame, norm, np.ones(3))
        with pytest.raises(ValueError, match=f"no question '{which}'"):
            table.conclusions(which)
        assert table.agrees()

    def test_agreement_survives_custom_metric(self):
        metric = np.diag([2.0, 1.0, 0.5, 1.5]) + 0.1
        cfg = SpaceConfig(dim=4, arity=3, metric=metric)
        norm = standard_nnorm(cfg)
        rng = np.random.default_rng(16)
        frame = random_frame(cfg, rng, min_volume=0.05)
        for entry in build_corpus(rng, 4, frame_rows=frame.vectors, per_kind=3):
            table = equivalence_matrix(entry.spec, frame, norm, entry.candidate_limit)
            assert table.agrees(), entry.spec.kind
            for which, expected in entry.expected.items():
                assert table.conclusions(which)[0] is expected


class TestFrameIndependence:
    def test_verdicts_agree_across_random_frames(self):
        cfg = SpaceConfig(dim=5, arity=3)
        norm = standard_nnorm(cfg)
        rng = np.random.default_rng(12)
        frames = [random_frame(cfg, rng) for _ in range(3)]
        for entry in build_corpus(rng, 5, frame_rows=frames[0].vectors, per_kind=3):
            conclusions = set()
            for frame in frames:
                table = equivalence_matrix(entry.spec, frame, norm, entry.candidate_limit)
                assert table.agrees()
                conclusions.add(tuple(table.conclusions(w)[0] for w in ("convergence", "boundedness", "cauchy")))
            assert len(conclusions) == 1, entry.spec.kind


class TestCovering:
    def test_covering_examples(self):
        sel = NormSelection(n=5, subsets=(IndexSet([1, 2]), IndexSet([1, 3]), IndexSet([4, 5])))
        assert covering_check(sel)
        sel2 = NormSelection(n=5, subsets=(IndexSet([1, 2]), IndexSet([3, 4])))
        assert not covering_check(sel2)
        sel3 = NormSelection(n=3, subsets=(IndexSet([1, 2, 3]),))
        assert covering_check(sel3)

    def test_minimal_cover_size_examples(self):
        assert minimal_cover_size(5, 2) == 3
        assert minimal_cover_size(4, 4) == 1
        assert minimal_cover_size(7, 3) == 3

    def test_minimal_cover_size_matches_exhaustive_search(self):
        for n in range(1, 8):
            for m in range(1, n + 1):
                assert minimal_cover_size(n, m) == exhaustive_min_cover_size(n, m), (n, m)

    def test_minimal_cover_size_range_errors(self):
        with pytest.raises(ValueError):
            minimal_cover_size(3, 0)
        with pytest.raises(ValueError):
            minimal_cover_size(3, 4)

    def test_minimal_cover_size_takes_whole_numbers_only(self):
        # a whole float is its int; 4.5 is named, not floored into a float size
        assert minimal_cover_size(4.0, 2.0) == 2 and type(minimal_cover_size(4.0, 2.0)) is int
        with pytest.raises(ValueError, match="n 4.5 is not an integer"):
            minimal_cover_size(4.5, 2)

    def test_enumerate_minimal_covers_takes_whole_numbers_only(self):
        assert enumerate_minimal_covers(4.0, 2) == enumerate_minimal_covers(4, 2)
        with pytest.raises(ValueError, match="m 1.5 is not an integer"):
            enumerate_minimal_covers(4, 1.5)

    def test_enumerate_minimal_covers_n3_m2(self):
        families = enumerate_minimal_covers(3, 2)
        got = {frozenset(s.indices for s in f.subsets) for f in families}
        assert got == {
            frozenset({(1, 2), (1, 3)}),
            frozenset({(1, 2), (2, 3)}),
            frozenset({(1, 3), (2, 3)}),
        }

    def test_enumerate_minimal_covers_trivial_cases(self):
        assert len(enumerate_minimal_covers(2, 1)) == 1
        assert len(enumerate_minimal_covers(3, 3)) == 1

    def test_enumerate_matches_bruteforce(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                ours = {frozenset(s.indices for s in f.subsets) for f in enumerate_minimal_covers(n, m)}
                ref = enumerate_covers_bruteforce(n, m, minimal_cover_size(n, m))
                assert ours == ref, (n, m)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            enumerate_minimal_covers(8, 2)

    def test_covering_selection_matches_full_verdict(self):
        cfg, frame, norm = space(4, 5)
        rng = np.random.default_rng(14)
        entries = build_corpus(rng, 5, frame_rows=frame.vectors, per_kind=2)
        for m in (1, 2, 3, 4):
            full = full_selection(4, m)
            for family in enumerate_minimal_covers(4, m):
                for entry in entries:
                    got = converges_wrt(entry.spec, frame, norm, family, entry.candidate_limit, evidence_ks=()).conclusion
                    ref = converges_wrt(entry.spec, frame, norm, full, entry.candidate_limit, evidence_ks=()).conclusion
                    assert got is ref

    def test_noncovering_selection_can_lie(self):
        # for every n <= 5 and m with ceil(n/m) >= 2 there is a non-covering
        # selection plus a divergent sequence it wrongly declares convergent
        for n in range(2, 6):
            for m in range(1, n):
                cfg = SpaceConfig(dim=n, arity=n)
                frame = standard_frame(cfg)
                norm = standard_nnorm(cfg)
                if minimal_cover_size(n, m) < 2:
                    continue
                selection = NormSelection(n=n, subsets=(IndexSet(range(1, m + 1)),))
                assert not covering_check(selection)
                spec = divergent_linear(np.eye(n)[n - 1])  # along the uncovered index n
                lying = converges_wrt(spec, frame, norm, selection, np.zeros(n), evidence_ks=())
                honest = converges_wrt(spec, frame, norm, full_selection(n, m), np.zeros(n), evidence_ks=())
                assert lying.conclusion is Conclusion.CONVERGES
                assert honest.conclusion is Conclusion.DIVERGES


class TestSampledPath:
    def test_decaying_table_converges(self):
        cfg, frame, norm = space(2, 2)
        table = [(k, np.array([1.0 / k, 0.0])) for k in range(1, 11)]
        verdict = converges_wrt(custom_sequence(table), frame, norm, full_selection(2, 1), np.zeros(2))
        assert verdict.conclusion is Conclusion.CONVERGES
        assert verdict.method is Method.SAMPLED
        assert verdict.window == (1, 10)

    def test_noisy_table_inconclusive(self):
        cfg, frame, norm = space(2, 2)
        rng = np.random.default_rng(15)
        table = [(k, rng.uniform(-1, 1, 2)) for k in range(1, 11)]
        verdict = converges_wrt(custom_sequence(table), frame, norm, full_selection(2, 1), np.zeros(2))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE

    def test_growing_table_never_reports_convergence(self):
        cfg, frame, norm = space(2, 2)
        table = [(k, np.array([float(k), 0.0])) for k in range(1, 11)]
        verdict = converges_wrt(custom_sequence(table), frame, norm, full_selection(2, 1), np.zeros(2))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE

    def test_cauchy_sampled(self):
        cfg, frame, norm = space(2, 2)
        table = [(k, np.array([1.0 / k, 0.0])) for k in range(1, 11)]
        verdict = is_cauchy_wrt(custom_sequence(table), frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.CAUCHY
        assert verdict.method is Method.SAMPLED
        noisy = [(k, np.array([(-1.0) ** k, 0.0])) for k in range(1, 11)]
        verdict = is_cauchy_wrt(custom_sequence(noisy), frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE

    def test_custom_table_bounded(self):
        # a linear table rises with level gaps: a finite table alone is not
        # evidence of boundedness
        cfg, frame, norm = space(2, 2)
        table = [(k, np.array([float(k), 0.5])) for k in range(1, 6)]
        verdict = is_bounded_wrt(custom_sequence(table), frame, norm, full_selection(2, 1))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.bound is None
        assert verdict.window == (1, 5)


class TestClosedSetProbe:
    def test_limits_inside_closed_ball(self):
        center = np.zeros(3)
        inside = lambda v: float(np.linalg.norm(v - center)) <= 1.0
        specs = [
            convergent_power(0.5 * np.eye(3)[0], np.eye(3)[1], coefficient=0.25),
            constant(np.array([0.0, 0.0, 0.9])),
        ]
        report = closed_set_probe(specs, inside)
        assert report.all_limits_inside
        assert report.witnesses == ()

    def test_open_ball_witness_found(self):
        # converge to a boundary point from the inside: the limit escapes
        boundary = np.array([1.0, 0.0])
        open_ball = lambda v: float(np.linalg.norm(v)) < 1.0
        spec = convergent_power(boundary, -boundary, coefficient=0.5, exponent=1.0)
        report = closed_set_probe([spec], open_ball)
        assert not report.all_limits_inside
        assert len(report.witnesses) == 1
        assert np.array_equal(report.witnesses[0].limit, boundary)

    def test_empty_spec_list(self):
        report = closed_set_probe([], lambda v: True)
        assert report.entries == ()
        assert report.all_limits_inside

    def test_divergent_spec_rejected(self):
        with pytest.raises(ValueError):
            closed_set_probe([divergent_linear(np.ones(2))], lambda v: True)

    def test_non_integral_sample_index_rejected(self):
        with pytest.raises(ValueError, match="index 2.5 is not an integer"):
            closed_set_probe([constant(np.zeros(2))], lambda v: True, sample_ks=(1, 2.5))

    def test_sampled_term_outside_rejected(self):
        spec = constant(np.array([5.0, 0.0]))
        with pytest.raises(ValueError):
            closed_set_probe([spec], lambda v: float(np.linalg.norm(v)) < 1.0)


class TestCounterexampleR5:
    def test_trace_values(self):
        record = counterexample_r5(k_max=20)
        for k, v12, v34, v15 in record.rows:
            assert abs(v12) <= 1e-9
            assert abs(v34) <= 1e-9
            assert abs(v15 - k) <= 1e-9 * k

    def test_k10_row(self):
        record = counterexample_r5(k_max=10)
        assert record.rows[9] == (10, 0.0, 0.0, pytest.approx(10.0, rel=1e-12))

    def test_verdict_pair(self):
        record = counterexample_r5(k_max=5)
        assert not record.noncovering_covers
        assert record.covering_covers
        assert record.noncovering_verdict.conclusion is Conclusion.CONVERGES
        assert record.covering_verdict.conclusion is Conclusion.DIVERGES

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            counterexample_r5(k_max=0)

    def test_k_max_must_be_a_whole_number(self):
        assert counterexample_r5(k_max=3.0).rows == counterexample_r5(k_max=3).rows
        with pytest.raises(ValueError, match="k_max 2.5 is not an integer"):
            counterexample_r5(k_max=2.5)


class TestTraceCsv:
    def test_round_trip_exact(self):
        points = (
            TracePoint(1, IndexSet([1, 2]), 0.0),
            TracePoint(2, IndexSet([3, 4]), 1.0 / 3.0),
            TracePoint(100, IndexSet([1, 5]), 12345.6789e-7),
        )
        text = emit_trace_csv(points)
        assert text.splitlines()[0] == "k,subset,value"
        assert parse_trace_csv(text) == points

    def test_counterexample_traces_round_trip(self):
        record = counterexample_r5(k_max=7)
        assert parse_trace_csv(emit_trace_csv(record.traces)) == record.traces

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_trace_csv("a,b,c\n1,1,0.0\n")


class TestZeroProfile:
    def test_standard_basis_profile(self):
        cfg, frame, norm = space(3, 3)
        flags = zero_profile(frame, norm, frame.row(2))
        # y_2 is in span(Y minus y_j) exactly when j != 2
        assert flags.tolist() == [True, False, True]
