"""Tests of the benchmark harness alone: self-time arithmetic, wrapper
removal, exact call counts, the tail-percentile rule, the best-of-rounds
reduction and the known-defect probe."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for p in (str(BENCH.parent / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

import nnormkit as nk  # noqa: E402
import nnormkit.linalg  # noqa: E402
import nnormkit.nnorm  # noqa: E402
import nnormkit.quotient  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    durations = [10.0, 3.0, 1.0, 4.0]
    parents = [spans.NO_PARENT, 0, 1, 0]
    assert spans.self_times(durations, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    durations = [8.0, 2.5, 0.5, 1.0, 3.0]
    parents = [spans.NO_PARENT, 0, 1, 1, 0]
    assert sum(spans.self_times(durations, parents)) == pytest.approx(8.0)


def _traced_calls(work):
    tracer = spans.Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer


def _small_work():
    cfg = nk.SpaceConfig(dim=3, arity=2)
    frame = nk.random_frame(cfg, np.random.default_rng(3))
    norm = nk.standard_nnorm(cfg)
    nk.check_axioms(norm, 3, 3)
    nk.quotient_norm_axioms(frame, norm, nk.IndexSet((1,)), 3, 3)


def test_wrappers_cover_every_binding_and_are_removed():
    originals = {
        ("nnormkit.nnorm", "determinant"): nnormkit.nnorm.determinant,
        ("nnormkit.quotient", "determinant"): nnormkit.quotient.determinant,
        ("nnormkit.linalg", "determinant"): nnormkit.linalg.determinant,
        ("nnormkit", "determinant"): nk.determinant,
    }
    init = nk.Frame.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the name is rebound in every namespace that imported it
        assert spans.is_traced(nnormkit.nnorm.determinant)
        assert spans.is_traced(nnormkit.quotient.determinant)
        assert spans.is_traced(nk.determinant)
        assert spans.is_traced(nk.Frame.__init__)
        assert spans.traced_bindings()
    finally:
        tracer.uninstall()
    assert spans.traced_bindings() == []
    assert nk.Frame.__init__ is init
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    # nothing records once the wrappers are gone
    before = tracer.span_count()
    _small_work()
    assert tracer.span_count() == before


def test_traced_counts_repeat_exactly():
    first = _traced_calls(_small_work).summary()
    second = _traced_calls(_small_work).summary()
    assert {k: v["calls"] for k, v in first.items()} == {k: v["calls"] for k, v in second.items()}
    # the standard_nnorm lambda reaches standard_norm through the patched name
    assert first["nnorm.standard_norm"]["calls"] > 0
    assert first["quotient.Frame"]["calls"] == 1


def test_self_times_of_a_traced_run_add_up_to_its_top_level_calls():
    tracer = _traced_calls(_small_work)
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    own = spans.self_times(durations, tracer.parents)
    top = sum(d for d, parent in zip(durations, tracer.parents) if parent == spans.NO_PARENT)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(top)


def test_distinct_share_counts_repeated_inputs():
    cfg = nk.SpaceConfig(dim=3, arity=2)
    vs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    tracer = _traced_calls(lambda: [nk.standard_norm(cfg, vs) for _ in range(4)])
    assert tracer.summary()["nnorm.standard_norm"]["calls"] == 4
    assert tracer.distinct_shares()["nnorm.standard_norm"] == 0.25


@pytest.mark.parametrize("n", [11, 24, 40, 288, 1000])
def test_tail_level_leaves_ten_items_beyond(n):
    level = stats.tail_level(n)
    values = list(range(n))
    _, beyond = stats.nearest_rank(values, level)
    assert beyond == stats.TAIL_BEYOND
    # with more items than the minimum, the same level keeps at least ten beyond
    _, beyond_more = stats.nearest_rank(list(range(3 * n)), level)
    assert beyond_more >= stats.TAIL_BEYOND


def test_tail_level_needs_more_than_ten_items():
    with pytest.raises(ValueError):
        stats.tail_level(10)


def test_nearest_rank_picks_the_value_at_the_level():
    value, beyond = stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 60.0)
    assert (value, beyond) == (3.0, 2)


def test_median_is_smooth_between_two_groups():
    # the sample median of 12 + 12 values jumps to one group or the other as
    # a single value moves; the Harrell-Davis median moves only a little
    base = [1.0] * 12 + [3.0] * 12
    assert stats.harrell_davis(base, 0.5) == pytest.approx(2.0)
    shifted = [1.0] * 13 + [3.0] * 11
    assert 1.0 < stats.harrell_davis(shifted, 0.5) < 2.0
    assert stats.harrell_davis([5.0] * 7, 0.5) == pytest.approx(5.0)


def test_oracle_error_is_relative_to_the_exact_value_or_the_scale():
    import oracle

    frame = nk.standard_frame(nk.SpaceConfig(dim=3, arity=2))
    w = np.array([0.0, 0.0, 2.0])
    s = nk.IndexSet((1, 2))
    # |w, e2| + |w, e1| = 2 + 2; the Hadamard scale is also 4
    assert oracle.relative_errors([(frame, w, s, 4.0), (frame, w, s, 4.4)], 1e-7) == pytest.approx([0.0, 0.1])
    # w in the kept span of s = {1}: the exact value 0 is below the threshold,
    # so the error is relative to the scale |w| * |e2| = 1
    inside = np.array([0.0, 1.0, 0.0])
    assert oracle.relative_errors([(frame, inside, nk.IndexSet((1,)), 1e-9)], 1e-7) == pytest.approx([1e-9])


def _fake_workload(items, probe=()):
    return workloads.Workload(items, min_rounds=3, probe=list(probe), known_failures=("quotient:definiteness_forward",))


def _fake_item(label, value, reasons=()):
    return workloads.Item(label=label, run=lambda: value, check=lambda output: list(reasons))


def test_timed_run_reduces_each_item_to_its_median_over_rounds():
    items = [_fake_item(f"item{i}", i) for i in range(12)]
    metrics, notes, ledger, outputs = worker.timed_run(_fake_workload(items), seconds=0.0)
    assert notes["rounds"] == 3  # the minimum, since no time is left after it
    assert notes["items"] == 12
    assert ledger.attempted == 36 and ledger.failed == 0
    assert outputs == list(range(12))
    assert metrics["items_per_s"]["value"] == pytest.approx(12 / notes["round_s_rescaled"])
    assert notes["tail_items_beyond"] == stats.TAIL_BEYOND


def test_rescaled_round_divides_by_the_kernel_times_around_its_segment(monkeypatch):
    import reference

    monkeypatch.setattr(worker, "run_item", lambda item: (0.004, item.run(), None))
    monkeypatch.setattr(reference, "kernel_ms", lambda: 3.0 * reference.REFERENCE_MS)
    items = [_fake_item(f"item{i}", i) for i in range(5)]
    # the kernel took REFERENCE_MS before the round and 3x that after it
    rescaled, outputs, kernels = worker.rescaled_round(_fake_workload(items), worker.Ledger(), reference.REFERENCE_MS)
    assert rescaled == pytest.approx([0.002] * 5)
    assert outputs == list(range(5))
    assert kernels == [3.0 * reference.REFERENCE_MS]


def test_probe_failures_are_kept_apart_from_timed_items():
    failing = _fake_item("probe", None, ["quotient:definiteness_forward: n=3 d=3"])
    workload = _fake_workload([_fake_item("timed", 1)], probe=[failing, _fake_item("probe-pass", 2)])
    ledger, outputs = worker.run_probe(workload)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.classes() <= set(workload.known_failures)
    assert outputs == [None, 2]


def test_quotient_probe_holds_the_known_failing_inputs_only(tmp_path):
    workload = workloads.quotient_sampled(7, str(tmp_path))
    timed = [item.label for item in workload.items]
    probed = [item.label for item in workload.probe]
    assert timed and probed
    assert not any("quotient_norm_axioms" in label or "divergent_linear" in label for label in timed)
    assert all("quotient_norm_axioms" in label or "divergent_linear" in label for label in probed)
