"""tools/call_counts.py prints one line of exact counts per benchmark
workload, and leaves the counted bindings as it found them."""

import importlib.util
import sys
from pathlib import Path

from nnormkit import linalg, nnorm, quotient

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "call_counts.py"


def test_one_line_of_counts_per_workload(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("call_counts", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends the checkout's
    bindings = (nnorm.NNorm.__call__, linalg._volumes, nnorm._volumes, quotient._volumes)
    assert tool.main(["call_counts.py", str(ROOT), "101"]) == 0
    assert (nnorm.NNorm.__call__, linalg._volumes, nnorm._volumes, quotient._volumes) == bindings
    lines = capsys.readouterr().out.splitlines()
    counts = {line.split()[0]: dict(field.split("=") for field in line.split()[1:]) for line in lines}
    assert list(counts) == ["equivalence_corpus@101", "quotient_sampled@101", "verify_cli@101"]
    assert all(list(c) == ["evaluator", "volumes_one_tuple", "volumes_stacked"] for c in counts.values())
    # the closed forms call no evaluator and take no volume
    assert set(counts["equivalence_corpus@101"].values()) == {"0"}
    # each injected evaluator call of quotient_sampled is one standard_norm,
    # so one single-tuple volume, and nothing else there takes a volume
    sampled = counts["quotient_sampled@101"]
    assert int(sampled["evaluator"]) == int(sampled["volumes_one_tuple"]) > 0
    assert sampled["volumes_stacked"] == "0"
