"""Digest the outputs of every benchmark item, to show that a change leaves
them bit-identical.

    python3 tools/output_digest.py <checkout> <out.json> [seed ...]
    python3 tools/output_digest.py --compare <a.json> <b.json>

Builds each workload of ``bench/workloads.py`` in <checkout> for each seed
(default 101 102 103), runs every timed and probe item once, and hashes what
it returned. An ``axioms@<seed>`` section adds ``check_axioms`` calls of
AXIOM_TRIALS tuples per shape of AXIOM_SHAPES (the criterion-1 grid and two
shapes with an SPD metric): one at the default tolerances, and one at
rel = 1e-300, where every rounding gap fails, so that each equality check
reports a witness whose values the strict digest covers. The same section
runs ``check_axioms`` and ``quotient_norm_axioms`` (on a seeded
``random_frame``, s = {1} and s = {1..n}) per shape on each broken
evaluator of BROKEN_NORMS, whose failing checks show how each selects its
witness. A ``draws@<seed>``
section hashes the raw bytes of what the volume gates let through, per shape
of AXIOM_SHAPES: DRAW_FRAMES successive ``random_frame`` draws and the stacks
of the three ``_Sampler`` batches of AXIOM_TRIALS tuples, each drawn as
``check_axioms`` draws it; a gate that flips shows there even where no
verdict moves. A ``zeros@<seed>`` section records the quotient zero
decisions near the kept span: per shape of AXIOM_SHAPES, ZERO_FRAMES seeded
``random_frame`` draws, and per frame index j a member of the span of the
other rows, perturbed along y_j at each delta of ZERO_DELTAS; each item holds
the ``quotient_profile(...).zero`` flags of one such vector under the
standard or an injected norm, so that ``--compare`` names every decision a
change of the zero rule flips. A ``shift@<seed>`` section covers the public
``shift_invariance_check``: per shape of AXIOM_SHAPES, row size of
SHIFT_SIZES and norm (the standard norm, an injected one and the
nan-on-large evaluator of BROKEN_NORMS), each item holds the (passed, gap)
of SHIFT_TRIALS seeded tuples and coefficients. An ``analytic@<seed>``
section covers the closed-form verdicts under the standard and an injected
norm: per shape of ANALYTIC_SHAPES, norm and case of ANALYTIC_CASES (each
closed-form kind, with a right and a wrong candidate limit, and directions
in and off the frame's span), each item holds ``converges_wrt``,
``is_cauchy_wrt`` and ``is_bounded_wrt`` at their default evidence ks on
the full class-1 selection and on {1}, and the ``equivalence_matrix``
table, every evidence tuple read. A ``generic@<seed>`` section covers the
injected-norm class-1 profile: per shape of AXIOM_SHAPES, row size of
SHIFT_SIZES (frame rows and vectors alike, so that at 1e+-150 the products
of lengths leave the double range), vector (zero, or seeded) and column
set ({1}, {n} and all), each item holds the ``quotient_profile`` values,
scales and zero flags, or the exception's class and column, and the number
of evaluator calls. The "contract" digest covers conclusions,
methods, windows, limits, evidence values and bounds (as ``float.hex``),
axiom pass/fail and CLI exit codes. The "strict" digest adds axiom
witnesses (discrepancy and details) and the bytes of every CLI report. Run
it on two checkouts, then ``--compare`` the two output files: it prints the
label of every item whose contract or strict digest differs (or that only
one file has) and exits 1 if there is any.
"""

import glob
import hashlib
import json
import math
import os
import sys
import tempfile
from enum import Enum

#: (n, d, SPD metric or not) per check_axioms item of the axioms section
AXIOM_SHAPES = [(n, d, False) for n in (2, 3, 4, 5) for d in (n, n + 1, n + 3)] + [(3, 4, True), (5, 6, True)]
AXIOM_TRIALS = 200
DRAW_FRAMES = 20
ZERO_FRAMES = 3
ZERO_DELTAS = (0.0, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-3)
SHIFT_TRIALS = 20
#: (n, d, SPD metric or not) per frame of the analytic section
ANALYTIC_SHAPES = [(2, 3, False), (3, 3, False), (3, 5, False), (4, 6, False), (5, 7, False), (3, 4, True)]
#: cases of the analytic section, each a closed-form sequence and a
#: candidate limit built from a seeded point x, direction v and frame
ANALYTIC_CASES = (
    "convergent_power",
    "convergent_power wrong-limit",
    "divergent_linear",
    "divergent_linear in-span",
    "oscillating",
    "oscillating in-span",
    "constant",
    "constant wrong-limit",
)
#: row sizes of the shift section: at 1e+-150 products of lengths leave the
#: range where `_products` takes them plainly
SHIFT_SIZES = (1.0, 1e150, 1e-150)
#: broken evaluators of the axioms section, each from the standard value of
#: a tuple and the tuple: the squared norm, the norm weighted by (1 + |first
#: coordinate|), and the norm that is NaN when its first vector has an entry
#: above 1.5
BROKEN_NORMS = {
    "squared": lambda value, vs: value**2,
    "weighted": lambda value, vs: value * (1.0 + abs(vs[0][0])),
    "nan-on-large": lambda value, vs: math.nan if max(vs[0]) > 1.5 else value,
}


def axiom_items(nk, seed, trials=AXIOM_TRIALS):
    """(label, thunk) per shape of AXIOM_SHAPES and tolerance; the thunk runs
    check_axioms on the standard norm. The metric is diag(0.5..2) + 0.1."""
    import numpy as np

    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        for tol, suffix in [(nk.Tolerance(), ""), (nk.Tolerance(rel=1e-300), " rel=1e-300")]:
            norm = nk.standard_nnorm(nk.SpaceConfig(dim=d, arity=n, metric=metric, tol=tol))
            label = f"check_axioms n={n} d={d}" + (" spd" if spd else "") + suffix
            items.append((label, lambda norm=norm: nk.check_axioms(norm, trials, seed)))
    return items


def broken_items(nk, seed, trials=AXIOM_TRIALS):
    """(label, thunk) per shape of AXIOM_SHAPES and broken evaluator of
    BROKEN_NORMS: check_axioms, and quotient_norm_axioms on a seeded
    random_frame for s = {1} and s = {1..n}. The evaluators fail checks, so
    these items digest how each check selects its witness."""
    import numpy as np

    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        frame = nk.random_frame(cfg, np.random.default_rng(seed))
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        for name, evaluate in BROKEN_NORMS.items():
            norm = nk.NNorm(cfg, name, lambda vs, cfg=cfg, evaluate=evaluate: evaluate(nk.standard_norm(cfg, vs), vs))
            items.append((f"check_axioms {name} {shape}", lambda norm=norm: nk.check_axioms(norm, trials, seed)))
            for s in (nk.IndexSet([1]), nk.IndexSet(range(1, n + 1))):
                label = f"quotient_norm_axioms {name} {shape} s={s}"
                items.append((label, lambda norm=norm, frame=frame, s=s: nk.quotient_norm_axioms(frame, norm, s, trials, seed)))
    return items


def draw_items(nk, seed, trials=AXIOM_TRIALS, frames=DRAW_FRAMES):
    """(label, thunk) per shape of AXIOM_SHAPES and draw; each thunk returns
    the SHA-256 of the drawn arrays' raw bytes."""
    import numpy as np
    from nnormkit.nnorm import _Sampler

    def frame_bytes(cfg):
        rng = np.random.default_rng(seed)
        return hashlib.sha256(b"".join(nk.random_frame(cfg, rng).vectors.tobytes() for _ in range(frames))).hexdigest()

    def batch_bytes(cfg, draw):
        return hashlib.sha256(getattr(_Sampler(cfg, np.random.default_rng(seed)), draw)(trials).stack.tobytes()).hexdigest()

    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        items.append((f"random_frame {shape}", lambda cfg=cfg: frame_bytes(cfg)))
        for draw in ("boundary_batch", "dependent_batch", "equality_batch"):
            items.append((f"{draw} {shape}", lambda cfg=cfg, draw=draw: batch_bytes(cfg, draw)))
    return items


def zero_items(nk, seed, frames=ZERO_FRAMES):
    """(label, thunk) per shape of AXIOM_SHAPES, frame, index j, delta and
    norm; the thunk returns the zero flags of the profile of u = (a member of
    the span of the frame without y_j) + delta y_j / |y_j|. The vectors are
    built from the public API only, so the tool runs on any checkout."""
    import numpy as np

    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        norms = [
            ("standard", nk.standard_nnorm(cfg)),
            ("injected", nk.NNorm(cfg, "injected", lambda vs, cfg=cfg: nk.standard_norm(cfg, vs))),
        ]
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        rng = np.random.default_rng(seed)
        for f in range(frames):
            frame = nk.random_frame(cfg, rng)
            for j in range(1, n + 1):
                member = np.reshape(frame.without(j), (n - 1, d)).T @ rng.uniform(-1.0, 1.0, n - 1)
                y = frame.row(j)
                direction = y / nk.hadamard_scale(cfg, [y])
                for delta in ZERO_DELTAS:
                    u = member + delta * direction
                    for name, norm in norms:
                        label = f"zero flags {shape} frame#{f} j={j} delta={delta:g} {name}"
                        items.append((label, lambda frame=frame, norm=norm, u=u: nk.quotient_profile(frame, norm, u).zero.tolist()))
    return items


def shift_items(nk, seed, trials=SHIFT_TRIALS):
    """(label, thunk) per shape of AXIOM_SHAPES, row size of SHIFT_SIZES and
    norm; the thunk returns (passed, gap) of shift_invariance_check on each
    of `trials` seeded tuples, scaled to the size, with seeded coefficients.
    Built from the public API only, so the tool runs on any checkout."""
    import numpy as np

    broken = BROKEN_NORMS["nan-on-large"]
    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        norms = [
            ("standard", nk.standard_nnorm(cfg)),
            ("injected", nk.NNorm(cfg, "injected", lambda vs, cfg=cfg: nk.standard_norm(cfg, vs))),
            ("nan-on-large", nk.NNorm(cfg, "nan-on-large", lambda vs, cfg=cfg: broken(nk.standard_norm(cfg, vs), vs))),
        ]
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        rng = np.random.default_rng(seed)
        drawn = [(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-5.0, 5.0, n - 1)) for _ in range(trials)]
        for size in SHIFT_SIZES:
            for name, norm in norms:

                def run(norm=norm, size=size, drawn=drawn):
                    checked = (nk.shift_invariance_check(norm, list(rows * size), alphas) for rows, alphas in drawn)
                    return [(bool(passed), gap) for passed, gap in checked]

                items.append((f"shift {shape} size={size:g} {name}", run))
    return items


def analytic_items(nk, seed, shapes=ANALYTIC_SHAPES):
    """(label, thunk) per shape, norm (the standard one and an injected
    one) and case of ANALYTIC_CASES; the thunk returns the three public
    verdicts on two selections and the equivalence table, with every
    evidence tuple read (the digest reads it). Built from the public API
    only, so the tool runs on any checkout."""
    import numpy as np

    items = []
    for n, d, spd in shapes:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        rng = np.random.default_rng(seed)
        frame = nk.random_frame(cfg, rng)
        x, v = rng.uniform(-1.0, 1.0, (2, d))
        in_span = frame.vectors.T @ rng.uniform(0.25, 1.0, n)
        cases = dict(
            zip(
                ANALYTIC_CASES,
                [
                    (nk.convergent_power(x, v, coefficient=1.5, exponent=0.7), x),
                    (nk.convergent_power(x, v, coefficient=-0.5, exponent=2.0), x + v),
                    (nk.divergent_linear(v), np.zeros(d)),
                    (nk.divergent_linear(in_span), np.zeros(d)),
                    (nk.oscillating(x, v, coefficient=0.75), x),
                    (nk.oscillating(x, in_span, coefficient=1.25), x),
                    (nk.constant(x), x),
                    (nk.constant(x), x + v),
                ],
            )
        )
        selections = [nk.full_selection(n, 1), nk.NormSelection(n, (nk.IndexSet([1]),))]
        norms = [
            ("standard", nk.standard_nnorm(cfg)),
            ("injected", nk.NNorm(cfg, "injected", lambda vs, cfg=cfg: nk.standard_norm(cfg, vs))),
        ]
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        for name, norm in norms:
            for case, (spec, limit) in cases.items():

                def run(spec=spec, limit=limit, frame=frame, norm=norm, selections=selections):
                    out = []
                    for sel in selections:
                        out.append(nk.converges_wrt(spec, frame, norm, sel, limit))
                        out.append(nk.is_cauchy_wrt(spec, frame, norm, sel))
                        out.append(nk.is_bounded_wrt(spec, frame, norm, sel))
                    return out + [nk.equivalence_matrix(spec, frame, norm, limit)]

                items.append((f"analytic {shape} {case} {name}", run))
    return items


def generic_items(nk, seed):
    """(label, thunk) per shape of AXIOM_SHAPES, row size of SHIFT_SIZES,
    vector and column set; the thunk returns the injected-norm profile of
    the vector against a seeded random_frame scaled to the size (or the
    exception's class and column) and the evaluator's call count. Built
    from the public API only, so the tool runs on any checkout."""
    import numpy as np

    items = []
    for n, d, spd in AXIOM_SHAPES:
        metric = np.diag(np.linspace(0.5, 2.0, d)) + 0.1 if spd else None
        cfg = nk.SpaceConfig(dim=d, arity=n, metric=metric)
        shape = f"n={n} d={d}" + (" spd" if spd else "")
        rng = np.random.default_rng(seed)
        rows, direction = nk.random_frame(cfg, rng).vectors, rng.uniform(-1.0, 1.0, d)
        for size in SHIFT_SIZES:
            frame = nk.Frame(cfg, rows * size)
            for name, u in (("zero", np.zeros(d)), ("seeded", direction * size)):
                for columns in ([1], [n], list(range(1, n + 1))):

                    def run(frame=frame, u=u, columns=columns, cfg=cfg):
                        calls = []

                        def evaluate(vs):
                            calls.append(len(vs))
                            return nk.standard_norm(cfg, vs)

                        try:
                            profile = nk.quotient_profile(frame, nk.NNorm(cfg, "injected", evaluate), u, columns)
                        except ValueError as err:
                            return [type(err).__name__, getattr(err, "index", None), len(calls)]
                        return [profile.values, profile.scales, profile.zero.tolist(), len(calls)]

                    items.append((f"generic {shape} size={size:g} {name} columns={columns}", run))
    return items


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
        if isinstance(x, np.integer):
            return int(x)
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

    def digest(key, items, report_dir=None):
        """Run each (label, thunk) item and record the section `key`; the
        strict digest also covers the CLI reports written to report_dir."""
        contract, strict, per_item = hashlib.sha256(), hashlib.sha256(), {}
        for label, run in items:
            output = run()
            c = json.dumps(plain(output, False), sort_keys=True).encode()
            s = json.dumps(plain(output, True), sort_keys=True).encode()
            contract.update(c)
            strict.update(s)
            per_item[label] = [hashlib.sha256(c).hexdigest()[:12], hashlib.sha256(s).hexdigest()[:12]]
        if report_dir is not None:
            for path in sorted(glob.glob(os.path.join(report_dir, "report_*.json"))):
                with open(path, encoding="utf-8") as fh:
                    strict.update(fh.read().replace(report_dir, "<workdir>").encode())
        result[key] = {
            "items": len(per_item),
            "contract": contract.hexdigest()[:16],
            "strict": strict.hexdigest()[:16],
            "per_item": per_item,
        }
        print(key, len(per_item), result[key]["contract"], result[key]["strict"], flush=True)

    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workload = build(seed, tmp)
                digest(f"{name}@{seed}", [(item.label, item.run) for item in workload.items + workload.probe], tmp)
    for seed in seeds:
        digest(f"axioms@{seed}", axiom_items(nk, seed) + broken_items(nk, seed))
        digest(f"draws@{seed}", draw_items(nk, seed))
        digest(f"zeros@{seed}", zero_items(nk, seed))
        digest(f"shift@{seed}", shift_items(nk, seed))
        digest(f"analytic@{seed}", analytic_items(nk, seed))
        digest(f"generic@{seed}", generic_items(nk, seed))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
