"""Digest the outputs of every benchmark item, to show that a change leaves
them bit-identical.

    python3 tools/output_digest.py <checkout> <out.json> [seed ...]
    python3 tools/output_digest.py --compare <a.json> <b.json>

Builds each workload of ``bench/workloads.py`` in <checkout> for each seed
(default 101 102 103), runs every timed and probe item once, and hashes what
it returned. The "contract" digest covers conclusions, methods, windows,
limits, evidence values and bounds (as ``float.hex``), axiom pass/fail and
CLI exit codes. The "strict" digest adds axiom witnesses (discrepancy and
details) and the bytes of every CLI report. Run it on two checkouts, then
``--compare`` the two output files: it prints the label of every item whose
contract or strict digest differs (or that only one file has) and exits 1
if there is any.
"""

import glob
import hashlib
import json
import os
import sys
import tempfile
from enum import Enum


def compare(path_a, path_b) -> int:
    """Print each item (and each workload) whose digests differ between two
    output files; the exit status is 1 when any does."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    differing = 0
    for key in sorted(a.keys() | b.keys()):
        # the workload digests also cover the CLI report files
        whole_a = [a.get(key, {}).get(d) for d in ("contract", "strict")]
        if whole_a != [b.get(key, {}).get(d) for d in ("contract", "strict")]:
            differing += 1
            print(f"{key}: workload digests")
        items_a = a.get(key, {}).get("per_item", {})
        items_b = b.get(key, {}).get("per_item", {})
        for label in sorted(items_a.keys() | items_b.keys()):
            if items_a.get(label) != items_b.get(label):
                differing += 1
                print(f"{key}: {label}")
    compared = sum(len(v["per_item"]) for v in a.values())
    print(f"{differing} difference(s); {compared} item(s) in {path_a}")
    return 1 if differing else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        return compare(argv[2], argv[3])
    root, out_path = os.path.abspath(argv[1]), argv[2]
    seeds = [int(s) for s in argv[3:]] or [101, 102, 103]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np

    import nnormkit as nk
    import workloads

    def plain(x, strict):
        if isinstance(x, (float, np.floating)):
            return float(x).hex()
        if isinstance(x, (bool, int, str)) or x is None:
            return x
        if isinstance(x, Enum):
            return x.value
        if isinstance(x, np.ndarray):
            return [float(v).hex() for v in x.ravel()]
        if isinstance(x, nk.IndexSet):
            return list(x.indices)
        if isinstance(x, nk.AxiomReport):
            out = [x.axiom.value, x.passed, x.trials]
            if strict and x.witness is not None:
                out += [plain(x.witness.discrepancy, strict), plain(x.witness.detail, strict)]
            return out
        if isinstance(x, dict):
            return {str(k): plain(v, strict) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v, strict) for v in x]
        if hasattr(x, "__dataclass_fields__"):
            return {k: plain(getattr(x, k), strict) for k in x.__dataclass_fields__ if not k.startswith("_")}
        raise TypeError(f"cannot digest {type(x)}")

    result = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workload = build(seed, tmp)
                contract, strict, per_item = hashlib.sha256(), hashlib.sha256(), {}
                for item in workload.items + workload.probe:
                    output = item.run()
                    c = json.dumps(plain(output, False), sort_keys=True).encode()
                    s = json.dumps(plain(output, True), sort_keys=True).encode()
                    contract.update(c)
                    strict.update(s)
                    per_item[item.label] = [hashlib.sha256(c).hexdigest()[:12], hashlib.sha256(s).hexdigest()[:12]]
                for path in sorted(glob.glob(os.path.join(tmp, "report_*.json"))):
                    with open(path, encoding="utf-8") as fh:
                        strict.update(fh.read().replace(tmp, "<workdir>").encode())
            key = f"{name}@{seed}"
            result[key] = {
                "items": len(per_item),
                "contract": contract.hexdigest()[:16],
                "strict": strict.hexdigest()[:16],
                "per_item": per_item,
            }
            print(key, len(per_item), result[key]["contract"], result[key]["strict"], flush=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
