"""The compare mode of tools/draw_stats.py, on synthetic statistics: two
proportions by the two-proportion z test, two samples by the two-sample
Kolmogorov-Smirnov test, at a family-wise alpha of 0.01 split over the
tests."""

import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "draw_stats.py"


@pytest.fixture(scope="module")
def stats_tool():
    spec = importlib.util.spec_from_file_location("draw_stats", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _file(path, proportions, samples):
    path.write_text(json.dumps({"shapes": {"n=2 d=2": {"proportions": proportions, "samples": samples}}}))
    return str(path)


def _uniform(seed, count, shift=0.0):
    rng = random.Random(seed)
    return [rng.random() + shift for _ in range(count)]


def test_the_same_law_passes(stats_tool, tmp_path, capsys):
    a = _file(tmp_path / "a.json", {"gate:min_volume": [700, 1000], "fails:triangle_inequality": [0, 20]}, {"value:generic": _uniform(1, 2000)})
    b = _file(tmp_path / "b.json", {"gate:min_volume": [690, 1010], "fails:triangle_inequality": [0, 20]}, {"value:generic": _uniform(2, 2000)})
    assert stats_tool.main(["draw_stats.py", "--compare", a, b]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 difference(s) in 3 test(s); family-wise alpha 0.01, 0.00333 per test"]


def test_a_moved_proportion_a_moved_sample_and_a_lone_statistic_are_named(stats_tool, tmp_path, capsys):
    a = _file(tmp_path / "a.json", {"gate:min_perp": [500, 1000], "kind:zero": [1, 3]}, {"value:generic": _uniform(1, 2000)})
    b = _file(tmp_path / "b.json", {"gate:min_perp": [700, 1000]}, {"value:generic": _uniform(2, 2000, shift=0.1)})
    assert stats_tool.main(["draw_stats.py", "--compare", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n=2 d=2 kind:zero: only in the first file"
    assert out[1].startswith("n=2 d=2 gate:min_perp: 500/1000 against 700/1000, |z| = 9.")
    assert out[2].startswith("n=2 d=2 value:generic: KS 0.1")
    assert out[3] == "3 difference(s) in 2 test(s); family-wise alpha 0.01, 0.005 per test"


def test_a_failing_check_is_reported_even_where_the_sides_agree(stats_tool):
    a = {"shapes": {"s": {"proportions": {"fails:definiteness_forward": [1, 20]}}}}
    b = {"shapes": {"s": {"proportions": {"fails:definiteness_forward": [0, 20]}}}}
    differences, notes, tests = stats_tool.compare_stats(a, b)
    assert (differences, tests) == ([], 1)
    assert notes == ["s fails:definiteness_forward: failed at 1 of 20 and 0 of 20 seeds"]


def test_the_bounds(stats_tool):
    assert stats_tool.two_proportion_z([0, 50], [0, 70]) == 0.0 == stats_tool.two_proportion_z([5, 5], [9, 9])
    assert stats_tool.two_proportion_z([0, 100], [1, 100]) == pytest.approx(1.0025, abs=1e-4)
    assert stats_tool.ks_statistic([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0
    assert stats_tool.ks_statistic([1.0, 2.0], [3.0, 4.0]) == 1.0
    # ties step both distribution functions at once
    assert stats_tool.ks_statistic([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]) == 0.25
    assert stats_tool.ks_bound(100, 100, 0.05) == pytest.approx(1.358 * math.sqrt(0.02), rel=1e-3)
