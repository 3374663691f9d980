"""The compare mode of tools/output_digest.py: it names every item whose
digests differ between two output files and sets the exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, per_item, whole=("c0", "s0")):
    path.write_text(json.dumps({"w@1": {"items": len(per_item), "contract": whole[0], "strict": whole[1], "per_item": per_item}}))
    return str(path)


def test_identical_outputs_exit_zero(digest_tool, tmp_path, capsys):
    items = {"a": ["c1", "s1"], "b": ["c2", "s2"]}
    a, b = _write(tmp_path / "a.json", items), _write(tmp_path / "b.json", dict(items))
    assert digest_tool.main(["output_digest.py", "--compare", a, b]) == 0
    assert capsys.readouterr().out.splitlines() == [f"0 difference(s); 2 item(s) in {a}"]


def test_differing_items_are_named(digest_tool, tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"a": ["c1", "s1"], "b": ["c2", "s2"], "c": ["c3", "s3"]})
    # b differs in its strict digest only, c is missing, d is new
    b = _write(tmp_path / "b.json", {"a": ["c1", "s1"], "b": ["c2", "sX"], "d": ["c4", "s4"]}, ("c0", "sY"))
    assert digest_tool.main(["output_digest.py", "--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w@1: workload digests",
        "w@1: b",
        "w@1: c",
        "w@1: d",
        f"4 difference(s); 3 item(s) in {a}",
    ]


def test_axiom_items_cover_the_criterion_1_grid_and_two_metric_shapes(digest_tool):
    import nnormkit as nk

    items = digest_tool.axiom_items(nk, seed=5, trials=2)
    shapes = [f"check_axioms n={n} d={d}" for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)]
    shapes += ["check_axioms n=3 d=4 spd", "check_axioms n=5 d=6 spd"]
    assert [label for label, _ in items] == [s + t for s in shapes for t in ("", " rel=1e-300")]
    default, strict = items[-2][1](), items[-1][1]()
    assert [r.trials for r in default] == [2] * 7
    assert all(r.passed for r in default)
    # at rel = 1e-300 rounding gaps fail, so witnesses carry values to digest
    assert not all(r.passed for r in strict)


def test_draw_items_cover_the_frames_and_three_batches_of_each_axiom_shape(digest_tool):
    import nnormkit as nk

    # at 7 trials an equality batch holds a near-dependent tuple, whose draw
    # depends on the metric
    items = digest_tool.draw_items(nk, seed=5, trials=7, frames=2)
    shapes = [f"n={n} d={d}" for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + ["n=3 d=4 spd", "n=5 d=6 spd"]
    draws = ("random_frame", "boundary_batch", "dependent_batch", "equality_batch")
    assert [label for label, _ in items] == [f"{draw} {shape}" for shape in shapes for draw in draws]
    digests = [run() for _, run in items]
    assert digests == [run() for _, run in items]  # seeded, so repeatable
    assert len(set(digests)) == len(digests)
    assert digests != [run() for _, run in digest_tool.draw_items(nk, seed=6, trials=7, frames=2)]


def test_zero_items_cover_every_index_and_delta_of_each_axiom_shape(digest_tool):
    import nnormkit as nk

    items = digest_tool.zero_items(nk, seed=5, frames=1)
    shapes = [(f"n={n} d={d}", n) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [("n=3 d=4 spd", 3), ("n=5 d=6 spd", 5)]
    deltas = ("0", "1e-12", "1e-10", "1e-08", "1e-07", "1e-06", "0.001")
    expected = [(shape, j, delta, norm) for shape, n in shapes for j in range(1, n + 1) for delta in deltas for norm in ("standard", "injected")]
    assert [label for label, _ in items] == [f"zero flags {shape} frame#0 j={j} delta={delta} {norm}" for shape, j, delta, norm in expected]
    flags = [run() for _, run in items]
    assert flags == [run() for _, run in digest_tool.zero_items(nk, seed=5, frames=1)]  # seeded, so repeatable
    # an exact member is zero at its own index, and one 1e-3 off the span is not
    for (_, j, delta, _), flag in zip(expected, flags):
        if delta in ("0", "0.001"):
            assert flag[j - 1] == (delta == "0")


def test_broken_items_run_both_engines_on_each_broken_evaluator(digest_tool):
    import math

    import nnormkit as nk

    items = digest_tool.broken_items(nk, seed=5, trials=8)
    shapes = [(f"n={n} d={d}", n) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [("n=3 d=4 spd", 3), ("n=5 d=6 spd", 5)]
    expected = []
    for shape, n in shapes:
        for name in ("squared", "weighted", "nan-on-large"):
            expected.append(f"check_axioms {name} {shape}")
            full = "{" + ",".join(str(j) for j in range(1, n + 1)) + "}"
            expected += [f"quotient_norm_axioms {name} {shape} s={{1}}", f"quotient_norm_axioms {name} {shape} s={full}"]
    assert [label for label, _ in items] == expected
    reports = {label: run() for label, run in items}
    assert [len(r) for r in reports.values()] == [7, 4, 4] * (len(items) // 3)
    # every evaluator fails a check in each engine, so witnesses are digested
    for label, rs in reports.items():
        assert not all(r.passed for r in rs), label
    # and the NaN evaluator fails homogeneity with a NaN discrepancy
    homogeneity = reports["check_axioms nan-on-large n=3 d=4"][4]
    assert homogeneity.axiom is nk.Axiom.ABSOLUTE_HOMOGENEITY and math.isnan(homogeneity.witness.discrepancy)


def test_shift_items_cover_each_axiom_shape_size_and_norm(digest_tool):
    import math

    import nnormkit as nk

    items = digest_tool.shift_items(nk, seed=5, trials=3)
    shapes = [f"n={n} d={d}" for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + ["n=3 d=4 spd", "n=5 d=6 spd"]
    sizes = ("1", "1e+150", "1e-150")
    norms = ("standard", "injected", "nan-on-large")
    assert [label for label, _ in items] == [f"shift {shape} size={size} {norm}" for shape in shapes for size in sizes for norm in norms]
    def hexed(items):
        return [[(passed, float(gap).hex()) for passed, gap in run()] for _, run in items]

    checked = [run() for _, run in items]
    assert hexed(items) == hexed(digest_tool.shift_items(nk, seed=5, trials=3))  # seeded, so repeatable
    assert hexed(items) != hexed(digest_tool.shift_items(nk, seed=6, trials=3))
    assert all(len(c) == 3 and all(isinstance(passed, bool) for passed, _ in c) for c in checked)
    # the standard norm passes at every size; the nan-on-large evaluator is
    # NaN on some tuples with rows at 1e+150, and on none at 1e-150
    results = dict(zip((label for label, _ in items), checked))
    for shape in shapes:
        for size in sizes:
            assert all(passed for passed, _ in results[f"shift {shape} size={size} standard"]), (shape, size)
    assert any(math.isnan(gap) for shape in shapes for _, gap in results[f"shift {shape} size=1e+150 nan-on-large"])
    assert not any(math.isnan(gap) for shape in shapes for _, gap in results[f"shift {shape} size=1e-150 nan-on-large"])


def test_analytic_items_cover_each_case_shape_and_norm(digest_tool):
    import nnormkit as nk

    shapes = [(2, 3, False), (3, 4, True)]
    items = digest_tool.analytic_items(nk, seed=5, shapes=shapes)
    cases = digest_tool.ANALYTIC_CASES
    assert len(cases) == 8
    expected = [f"analytic {shape} {case} {norm}" for shape in ("n=2 d=3", "n=3 d=4 spd") for norm in ("standard", "injected") for case in cases]
    assert [label for label, _ in items] == expected

    def hexed(items):
        out = []
        for _, run in items:
            *verdicts, table = run()
            verdicts += [v for row in table.rows for v in (row.convergence, row.boundedness, row.cauchy)]
            out.append([(v.conclusion, v.method, None if v.bound is None else v.bound.hex(), [(p.k, p.subset.indices, p.value.hex()) for p in v.evidence]) for v in verdicts])
        return out

    first = hexed(items)
    assert first == hexed(digest_tool.analytic_items(nk, seed=5, shapes=shapes))  # seeded, so repeatable
    assert first != hexed(digest_tool.analytic_items(nk, seed=6, shapes=shapes))
    # every item is analytic, and both norms give the same conclusions
    results = dict(zip(expected, first))
    for label, verdicts in results.items():
        assert len(verdicts) == 6 + 3 * int(label.split()[1][2:])
        assert all(method is nk.Method.ANALYTIC and evidence for _, method, _, evidence in verdicts), label
        if label.endswith("standard"):
            twin = results[label[: -len("standard")] + "injected"]
            assert [v[0] for v in verdicts] == [v[0] for v in twin], label


def test_generic_items_cover_each_axiom_shape_size_vector_and_column_set(digest_tool):
    import nnormkit as nk

    items = digest_tool.generic_items(nk, seed=5)
    shapes = [(f"n={n} d={d}", n) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [("n=3 d=4 spd", 3), ("n=5 d=6 spd", 5)]
    expected = [
        (shape, size, vector, columns)
        for shape, n in shapes
        for size in ("1", "1e+150", "1e-150")
        for vector in ("zero", "seeded")
        for columns in ([1], [n], list(range(1, n + 1)))
    ]
    assert [label for label, _ in items] == [f"generic {shape} size={size} {vector} columns={columns}" for shape, size, vector, columns in expected]

    def hexed(items):
        out = []
        for _, run in items:
            result = run()
            if isinstance(result[0], str):  # exception class, column, calls
                out.append(result)
            else:
                values, scales, zero, calls = result
                out.append([[float(x).hex() for x in values], [float(x).hex() for x in scales], zero, calls])
        return out

    first = hexed(items)
    assert first == hexed(digest_tool.generic_items(nk, seed=5))  # seeded, so repeatable
    assert first != hexed(digest_tool.generic_items(nk, seed=6))
    for (shape, size, vector, columns), result in zip(expected, first):
        if isinstance(result[0], str):
            # a scale out of range raises before its column's call
            assert result[0] in ("ScaleOutOfRange", "ValueError") and result[2] < len(columns), (shape, size, vector)
            continue
        values, scales, zero, calls = result
        assert calls == len(columns)  # one evaluator call per requested column
        assert [v != "nan" for v in values] == [j in columns for j in range(1, len(values) + 1)]
        if vector == "zero":
            assert all(zero[j - 1] for j in columns)
    # at row size 1 every profile is representable
    assert all(not isinstance(r[0], str) for (_, size, _, _), r in zip(expected, first) if size == "1")
