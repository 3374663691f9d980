"""Statistics of the axiom sampler's draws, and a test that two checkouts
draw by the same law.

    python3 tools/draw_stats.py [checkout] [seeds] [--output stats.json]
    python3 tools/draw_stats.py --compare <a.json> <b.json>

The first form draws, in <checkout> (default: the checkout this tool is in),
for each shape of AXIOM_SHAPES of ``tools/output_digest.py`` (the
criterion-1 grid and two shapes with an SPD metric) and each seed (default
1-20; a range "a-b" or a comma list), the three ``_Sampler`` batches of
TRIALS tuples as ``check_axioms`` draws them, and runs ``check_axioms`` on
the standard norm at TRIALS trials. It writes one JSON object (to stdout, or
to the --output file) that holds, per shape:

- ``proportions``: named [count, total] pairs, pooled over the seeds:
  - ``gate:min_volume`` and ``gate:min_perp``, the tuples each volume gate
    accepted out of those it decided. Every tuple of every ``_volumes`` call
    the sampler makes is one decision: n - 1 rows against MIN_VOLUME, and n
    rows (the others with a candidate w) against MIN_PERP times the others'
    volume. A single row is no decision (its volume is 1), nor is a volume
    taken again of the tuple the call before it gated;
  - ``label:<label>``, the boundary batch's tuples of each construction
    label out of all of them;
  - ``kind:<kind>``, the dependent batch's tuples built with a zero row,
    a duplicated row or a combination of the others, out of all of them;
  - ``fails:<axiom>``, the seeds at which the check failed, out of all.
- ``samples``: named lists of numbers, pooled over the seeds:
  ``value:<label>``, the ``standard_norm`` value of each boundary-batch
  tuple of that label.

The statistics read only what every version of the sampler has (its batch
methods, ``_Batch.stack``, ``labels`` and ``values``, and the ``_volumes``
calls of ``nnormkit.nnorm``), so the tool runs on the parent of a change
that moves the random stream as well as on the change.

The second form tests, for every statistic both files hold for a shape,
that the two sides agree: a proportion by the two-sided two-proportion z
test (pooled variance), a sample by the two-sample Kolmogorov-Smirnov test
(asymptotic critical value sqrt(-ln(a / 2) / 2) * sqrt((m + n) / (m n))).
The family-wise level is ALPHA = 0.01, split evenly over the tests
(Bonferroni), so under one law the whole comparison fails with
probability at most ALPHA. It prints every statistic that differs, each
statistic present on one side only, and every check that failed at some
seed on either side, and exits 1 when any statistic differs or is missing.
This form needs only the stdlib.
"""

import json
import math
import os
import statistics
import sys
from collections import Counter

TRIALS = 1000
DEFAULT_SEEDS = range(1, 21)
ALPHA = 0.01


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def _kind(rows) -> str:
    """How a dependent tuple was built: a zero row, a duplicated row, or a
    combination of the others."""
    if not rows.any(axis=1).all():
        return "zero"
    distinct = {row.tobytes() for row in rows}
    return "duplicate" if len(distinct) < len(rows) else "combination"


def shape_stats(nk, cfg, seeds, trials=TRIALS) -> dict:
    """The proportions and samples of one shape, pooled over the seeds."""
    import numpy as np
    from nnormkit import nnorm

    volumes = nnorm._volumes
    sampler_class = nnorm._Sampler
    n = cfg.arity
    counts = Counter()
    samples = {}
    decided = []

    def recording(cfg, tuples):
        out = volumes(cfg, tuples)
        decided.append((np.array(tuples).reshape(-1, *tuples.shape[-2:]), out[0]))
        return out

    norm = nk.standard_nnorm(cfg)
    for seed in seeds:
        nnorm._volumes = recording
        try:
            batches = {}
            for draw in ("boundary_batch", "dependent_batch", "equality_batch"):
                batches[draw] = getattr(sampler_class(cfg, np.random.default_rng(seed)), draw)(trials)
        finally:
            nnorm._volumes = volumes
        previous = None
        for stack, values in decided:
            for rows, value in zip(stack, values):
                if len(rows) < 2 or (previous is not None and rows.tobytes() == previous):
                    continue
                if len(rows) == n:
                    gate = "gate:min_perp"
                    accepted = value >= sampler_class.MIN_PERP * volumes(cfg, rows[:-1])[0][0]
                else:
                    gate = "gate:min_volume"
                    accepted = value >= sampler_class.MIN_VOLUME
                counts[gate, "total"] += 1
                counts[gate, "count"] += bool(accepted)
            previous = stack[-1].tobytes() if len(stack) == 1 else None
        decided.clear()
        boundary = batches["boundary_batch"].evaluate(norm)
        for label, value in zip(boundary.labels, boundary.values):
            counts["label:" + label, "count"] += 1
            samples.setdefault("value:" + label, []).append(value)
        for label in set(boundary.labels):
            counts["label:" + label, "total"] += len(boundary.labels)
        kinds = Counter(_kind(rows) for rows in batches["dependent_batch"].stack)
        for kind in ("zero", "duplicate", "combination"):
            counts["kind:" + kind, "count"] += kinds[kind]
            counts["kind:" + kind, "total"] += trials
        for report in nk.check_axioms(norm, trials, seed):
            counts["fails:" + report.axiom.value, "count"] += not report.passed
            counts["fails:" + report.axiom.value, "total"] += 1
    names = sorted({name for name, _ in counts})
    return {
        "proportions": {name: [counts[name, "count"], counts[name, "total"]] for name in names},
        "samples": {name: sorted(values) for name, values in sorted(samples.items())},
    }


def collect(root: str, seeds) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    import numpy as np
    from output_digest import AXIOM_SHAPES

    import nnormkit as nk

    shapes = {}
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        label = f"n={n} d={d}" + (" spd" if spd else "")
        shapes[label] = shape_stats(nk, nk.SpaceConfig(dim=d, arity=n, metric=metric), seeds)
        print(f"{label}: drawn", file=sys.stderr, flush=True)
    return {"checkout": root, "seeds": list(seeds), "trials": TRIALS, "shapes": shapes}


def two_proportion_z(a: list[int], b: list[int]) -> float:
    """|z| of the pooled two-proportion test of counts a = [k1, n1] and
    b = [k2, n2]; 0.0 when both proportions are 0 or both are 1."""
    (k1, n1), (k2, n2) = a, b
    pooled = (k1 + k2) / (n1 + n2)
    variance = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if variance == 0.0:
        return 0.0
    return abs(k1 / n1 - k2 / n2) / math.sqrt(variance)


def ks_statistic(a: list[float], b: list[float]) -> float:
    """The two-sample Kolmogorov-Smirnov statistic: the largest gap of the
    two empirical distribution functions."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    gap = 0.0
    while i < len(a) and j < len(b):
        x = min(a[i], b[j])
        while i < len(a) and a[i] == x:
            i += 1
        while j < len(b) and b[j] == x:
            j += 1
        gap = max(gap, abs(i / len(a) - j / len(b)))
    return gap


def ks_bound(m: int, n: int, level: float) -> float:
    """The asymptotic critical value of the KS statistic at the given level."""
    return math.sqrt(-math.log(level / 2.0) / 2.0) * math.sqrt((m + n) / (m * n))


def compare_stats(a: dict, b: dict) -> tuple[list[str], list[str], int]:
    """(differences, notes, tests) between two collected files: one line per
    statistic that differs at the Bonferroni level ALPHA / tests or that one
    side lacks, one note per check that failed at some seed, and the number
    of tests made."""
    pairs = []
    missing = []
    for shape in sorted(set(a["shapes"]) | set(b["shapes"])):
        left, right = a["shapes"].get(shape, {}), b["shapes"].get(shape, {})
        for kind in ("proportions", "samples"):
            ours, theirs = left.get(kind, {}), right.get(kind, {})
            for name in sorted(set(ours) | set(theirs)):
                if name in ours and name in theirs:
                    pairs.append((shape, kind, name, ours[name], theirs[name]))
                else:
                    missing.append(f"{shape} {name}: only in {'the first' if name in ours else 'the second'} file")
    tests = len(pairs)
    level = ALPHA / max(tests, 1)
    z_bound = statistics.NormalDist().inv_cdf(1.0 - level / 2.0)
    differences = list(missing)
    notes = []
    for shape, kind, name, x, y in pairs:
        if kind == "proportions":
            if name.startswith("fails:") and (x[0] or y[0]):
                notes.append(f"{shape} {name}: failed at {x[0]} of {x[1]} and {y[0]} of {y[1]} seeds")
            z = two_proportion_z(x, y)
            if z > z_bound:
                differences.append(f"{shape} {name}: {x[0]}/{x[1]} against {y[0]}/{y[1]}, |z| = {z:.2f} > {z_bound:.2f}")
        elif not x or not y:
            if x or y:
                differences.append(f"{shape} {name}: {len(x)} against {len(y)} values")
        else:
            gap, bound = ks_statistic(x, y), ks_bound(len(x), len(y), level)
            if gap > bound:
                differences.append(f"{shape} {name}: KS {gap:.4f} > {bound:.4f} ({len(x)} and {len(y)} values)")
    return differences, notes, tests


def main(argv) -> int:
    args = list(argv[1:])
    if args and args[0] == "--compare":
        with open(args[1]) as f:
            a = json.load(f)
        with open(args[2]) as f:
            b = json.load(f)
        differences, notes, tests = compare_stats(a, b)
        for line in notes + differences:
            print(line)
        print(f"{len(differences)} difference(s) in {tests} test(s); family-wise alpha {ALPHA:g}, {ALPHA / max(tests, 1):.3g} per test")
        return 1 if differences else 0
    output = None
    if "--output" in args:
        i = args.index("--output")
        output = args[i + 1]
        del args[i : i + 2]
    root = os.path.abspath(args[0]) if args else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seeds = _seeds(args[1]) if len(args) > 1 else list(DEFAULT_SEEDS)
    text = json.dumps(collect(root, seeds))
    if output is None:
        print(text)
    else:
        with open(output, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
