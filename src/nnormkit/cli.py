"""Command-line front door: compute norms, run verification suites, and
reproduce the R^5 demonstration, with deterministic JSON/CSV reports.

Exit codes: 0 success, 1 property failure (witnesses printed), 2 usage or
config error. Reports contain no timestamps and are byte-identical for
identical config + seed. The environment variable NNORMKIT_SEED overrides
the seed (and only the seed); whichever source gives it, a seed below 0 is a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, SpaceConfig, Tolerance, _index, _mapping, _tolerance, gram_matrix
from .nnorm import _trials, check_axioms, standard_nnorm, standard_norm
from .quotient import (
    Frame,
    IndexSet,
    _coset_gaps,
    quotient_norm_axioms,
    quotient_profile,
    random_frame,
    standard_frame,
)
from .topology import (
    Conclusion,
    NormSelection,
    _covering_families,
    constant,
    convergent_power,
    counterexample_r5,
    covering_check,
    divergent_linear,
    emit_trace_csv,
    enumerate_minimal_covers,
    equivalence_matrix,
    full_selection,
    minimal_cover_size,
    oscillating,
)

SEED_ENV_VAR = "NNORMKIT_SEED"
VERIFY_SUITES = ("axioms", "quotient", "convergence", "boundedness", "cauchy", "covering", "all")


class UsageError(Exception):
    """Malformed input or config; maps to exit code 2."""


def fmt(value: float, tol: Tolerance = DEFAULT_TOL) -> str:
    """Human-readable float: 12 significant digits, residual noise as 0."""
    if abs(value) < tol.zero:
        return "0"
    return f"{value:.12g}"


def _read_config(path: str | None) -> dict:
    """The JSON at `path`, or {} when no config is given."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc


def _config_space(raw, dim: int = 3, arity: int | None = None) -> SpaceConfig:
    """The config's space: its dim, arity, metric and tolerances. An absent
    dim is `dim`, and an absent arity is `arity`, else min(2, dim)."""
    try:
        space_raw = _mapping(_mapping(raw, "config").get("space", {}), "space")
        dim = space_raw.get("dim", dim)
        # min(2, dim) by an equality test, which any JSON value passes until
        # SpaceConfig checks dim
        arity = space_raw.get("arity", arity if arity is not None else 1 if dim == 1 else 2)
        return SpaceConfig(dim=dim, arity=arity, metric=space_raw.get("metric"), tol=_tolerance(raw.get("tolerances", {})))
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"bad config: {exc}") from exc


@dataclass
class RunConfig:
    frame: Frame
    seed: int
    trials: int
    raw: dict

    @classmethod
    def from_file(cls, path: str | None):
        raw = _read_config(path)
        space = _config_space(raw)
        try:
            frame_raw = raw.get("frame", "standard-basis")
            frame = standard_frame(space) if frame_raw == "standard-basis" else Frame(space=space, vectors=frame_raw)
            seed = _index(raw.get("seed", 0), "seed")
            trials = _index(raw.get("trials", 200), "trials")
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"bad config: {exc}") from exc
        return cls(frame=frame, seed=seed, trials=trials, raw=raw)


def _resolve_seed(args, config: RunConfig) -> int:
    """NNORMKIT_SEED, else --seed, else the config's seed; refused below 0."""
    seed = config.seed if args.seed is None else args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def report_json(command: str, inputs: dict, results, failures) -> str:
    doc = {
        "command": command,
        "digest": _digest({"command": command, "inputs": inputs}),
        "inputs": inputs,
        "results": results,
        "failures": failures,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def _report(args, command: str, inputs: dict, results, failures=(), csv: str | None = None) -> None:
    """Write the report to --output, if given: the CSV text when one is
    passed and --format csv asks for it, else the JSON report."""
    if args.output:
        text = csv if csv is not None and args.format == "csv" else report_json(command, inputs, results, failures)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse vector {text!r}; expected comma-separated numbers") from exc


def _parse_indices(text: str) -> IndexSet:
    try:
        return IndexSet(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad index set {text!r}: {exc}") from exc


def _parse_selection(text: str, n: int) -> NormSelection:
    try:
        subsets = tuple(_parse_indices(part) for part in text.split(";"))
        return NormSelection(n=n, subsets=subsets)
    except ValueError as exc:
        raise UsageError(f"bad selection {text!r}: {exc}") from exc


def _kv_csv(rows: list[tuple[str, float]]) -> str:
    return "key,value\n" + "".join(f"{k},{v!r}\n" for k, v in rows)


def cmd_norm(args) -> int:
    vectors = [_parse_vector(v) for v in args.vector]
    raw = _read_config(args.config)
    cfg = _config_space(raw, dim=len(vectors[0]), arity=len(vectors))
    value = standard_norm(cfg, vectors)
    gram = gram_matrix(cfg, vectors)
    print(f"standard {cfg.arity}-norm = {fmt(value, cfg.tol)}")
    print("gram matrix:")
    for row in gram:
        print("  " + "  ".join(fmt(x, cfg.tol) for x in row))
    results = {"norm": value, "gram": gram.tolist()}
    rows = [(f"gram[{i}][{j}]", x) for i, row in enumerate(results["gram"]) for j, x in enumerate(row)]
    _report(args, "norm", {"config": raw, "vectors": vectors}, results, csv=_kv_csv([("norm", value)] + rows))
    return 0


def cmd_quotient(args) -> int:
    config = RunConfig.from_file(args.config)
    frame, cfg = config.frame, config.frame.space
    u = _parse_vector(args.vector)
    s = _parse_indices(args.indices)
    s.validate_for(frame.n)
    profile = quotient_profile(frame, standard_nnorm(cfg), u, s)
    per_class1 = {j: float(profile.values[j - 1]) for j in s}
    total = profile.value(s)
    # the closed form against the definition: each class-1 term taken as
    # the n-norm of u and the frame less y_j, relative to the terms' scale
    defined = sum(standard_norm(cfg, [u] + frame.without(j)) for j in s)
    scale = profile.scale(s)
    residual = (total - defined) / scale if scale else 0.0
    print(f"quotient norm, removed {s} = {fmt(total, cfg.tol)}")
    for j, v in per_class1.items():
        print(f"  class-1 term j={j}: {fmt(v, cfg.tol)}")
    print(f"decomposition residual = {fmt(residual, cfg.tol)}")
    inputs = {"config": config.raw, "vector": u, "indices": s.to_json()}
    results = {
        "classm_norm": total,
        "class1_terms": {str(j): v for j, v in per_class1.items()},
        "residual": residual,
    }
    rows = [("classm_norm", total)] + [(f"class1[{j}]", v) for j, v in per_class1.items()] + [("residual", residual)]
    _report(args, "quotient", inputs, results, csv=_kv_csv(rows))
    return 0


def cmd_cover(args) -> int:
    n, m = args.n, args.m
    size = minimal_cover_size(n, m)
    # every input is refused before the first line is printed
    selection = _parse_selection(args.selection, n) if args.selection else None
    if selection is not None and selection.m != m:
        raise UsageError(f"selection subsets have size {selection.m}, expected {m}")
    families = enumerate_minimal_covers(n, m) if args.enumerate else None
    print(f"least number of class-{m} norms for n={n}: {size}")
    results: dict = {"n": n, "m": m, "minimal_cover_size": size}
    if selection is not None:
        covers = covering_check(selection)
        print(f"selection {args.selection} covers {{1..{n}}}: {covers}")
        results["selection"] = selection.to_json()
        results["covers"] = covers
    if families is not None:
        print(f"minimal covering families: {len(families)}")
        for fam in families:
            print("  " + " ".join(str(s) for s in fam.subsets))
        results["minimal_families"] = [f.to_json() for f in families]
    _report(args, "cover", {"n": n, "m": m}, results)
    return 0


def _failure_entry(kind: str, detail: str) -> dict:
    return {"check": kind, "witness": detail}


def _report_failures(prefix: str, where: str, reports) -> list[dict]:
    """A failure entry for each axiom report that did not pass."""
    return [
        _failure_entry(f"{prefix}:{r.axiom.value}", f"{where} discrepancy={r.witness.discrepancy:.3e}")
        for r in reports
        if not r.passed
    ]


def _suite_axioms(config: RunConfig, seed: int, trials: int) -> list[dict]:
    failures = []
    cfg = config.frame.space
    grid = [(cfg.arity, cfg.dim)]
    if config.raw.get("space") is None:
        grid = [(n, d) for n in (2, 3) for d in (n, n + 2)]
    for n, d in grid:
        space = SpaceConfig(dim=d, arity=n, tol=cfg.tol)
        failures += _report_failures("axiom", f"n={n} d={d}", check_axioms(standard_nnorm(space), trials=trials, seed=seed))
    return failures


def _suite_quotient(config: RunConfig, seed: int, trials: int) -> list[dict]:
    failures = []
    frame = config.frame
    norm = standard_nnorm(frame.space)
    rng = np.random.default_rng(seed)
    n = frame.n
    index_sets = [IndexSet((j,)) for j in range(1, n + 1)]
    if n >= 2:
        index_sets.append(IndexSet((1, n)))
    index_sets.append(IndexSet(tuple(range(1, n + 1))))
    for s in index_sets:
        failures += _report_failures("quotient", f"s={s}", quotient_norm_axioms(frame, norm, s, trials=trials, seed=seed))
        # each trial draws its coset, then all are checked in one stack
        us, coefficients, complement = [], [], s.complement(n)
        for _ in range(trials):
            us.append(rng.uniform(-1, 1, frame.dim))
            coefficients.append([float(rng.uniform(-5, 5)) for _ in complement])
        for gap in _coset_gaps(frame, norm, s, np.array(us), np.array(coefficients)):
            if not gap <= frame.space.tol.rel:
                failures.append(_failure_entry("quotient:coset_invariance", f"s={s} discrepancy={gap:.3e}"))
    return failures


#: the corpus answers, frame-free: every table reads the full class-m
#: collections, which cover, so each row answers as the ordinary norm does;
#: the corpus keeps directions nonzero, and R^d is complete
CONVERGENT = {"convergence": Conclusion.CONVERGES, "boundedness": Conclusion.BOUNDED, "cauchy": Conclusion.CAUCHY}
DIVERGENT = {"convergence": Conclusion.DIVERGES, "boundedness": Conclusion.UNBOUNDED, "cauchy": Conclusion.NOT_CAUCHY}
OSCILLATING = {"convergence": Conclusion.DIVERGES, "boundedness": Conclusion.BOUNDED, "cauchy": Conclusion.NOT_CAUCHY}


def _mini_corpus(cfg: SpaceConfig, rng: np.random.Generator) -> list[tuple]:
    """(spec, answer) pairs: four of each closed-form kind."""
    d = cfg.dim
    corpus = []
    for _ in range(4):
        x = rng.uniform(-1, 1, d)
        v = rng.uniform(-1, 1, d)
        v[int(rng.integers(0, d))] += 1.0  # keep directions away from zero
        coefficient, exponent = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        corpus.append((convergent_power(x, v, coefficient=coefficient, exponent=exponent), CONVERGENT))
        corpus.append((divergent_linear(v), DIVERGENT))
        corpus.append((oscillating(x, v, coefficient=float(rng.uniform(0.25, 2.0))), OSCILLATING))
        corpus.append((constant(x), CONVERGENT))
    return corpus


def _equivalence_tables(config: RunConfig, seed: int) -> list[tuple]:
    """(spec, frame number, answer, table) for each mini-corpus spec on the
    config's frame and two seeded random frames: every table the
    convergence, boundedness and cauchy suites check, built once per run."""
    cfg = config.frame.space
    norm = standard_nnorm(cfg)
    rng = np.random.default_rng(seed)
    frames = [config.frame] + [random_frame(cfg, rng) for _ in range(2)]
    tables = []
    for spec, answer in _mini_corpus(cfg, rng):
        limit = spec.base if spec.base is not None else np.zeros(cfg.dim)
        tables += [(spec, fi, answer, equivalence_matrix(spec, frame, norm, limit)) for fi, frame in enumerate(frames)]
    return tables


def _suite_equivalence(tables: list[tuple], which: str) -> list[dict]:
    """A failure for each table in which some row does not give the corpus
    answer to `which`."""
    failures = []
    for spec, fi, answer, table in tables:
        verdicts = [c.value for c in table.conclusions(which)]
        if set(verdicts) != {answer[which].value}:
            witness = f"spec={spec.kind.value} frame#{fi} answer={answer[which].value} verdicts={verdicts}"
            failures.append(_failure_entry(f"{which}:answer", witness))
    return failures


def _suite_covering() -> list[dict]:
    """The covering claim for n <= 6: no family of minimal_cover_size - 1
    subsets covers, and the enumerated families are some, each of that size,
    each covering; then the R^5 demonstration's two verdicts."""
    failures = []
    for n in range(1, 7):
        for m in range(1, n + 1):
            size = minimal_cover_size(n, m)
            # an empty family covers nothing, and a size below 1 fails below
            if size > 1 and any(_covering_families(n, full_selection(n, m).subsets, size - 1)):
                failures.append(_failure_entry("covering:smaller_family_covers", f"n={n} m={m} size={size}"))
            families = enumerate_minimal_covers(n, m)
            if not families or any(len(f.subsets) != size or not covering_check(f) for f in families):
                failures.append(_failure_entry("covering:minimal_families", f"n={n} m={m} size={size} families={len(families)}"))
    record = counterexample_r5(k_max=20)
    if record.noncovering_verdict.conclusion is not Conclusion.CONVERGES:
        failures.append(_failure_entry("covering:counterexample", "two-norm selection should report convergence"))
    if record.covering_verdict.conclusion is not Conclusion.DIVERGES:
        failures.append(_failure_entry("covering:counterexample", "three-norm selection should report divergence"))
    print(f"minimal cover size for n=5, m=2: {minimal_cover_size(5, 2)}")
    return failures


def cmd_verify(args) -> int:
    config = RunConfig.from_file(args.config)
    seed = _resolve_seed(args, config)
    trials = _trials(args.trials if args.trials is not None else config.trials)
    suite = args.suite
    # the equivalence suites share one set of tables, built on first use
    tables = functools.cache(lambda: _equivalence_tables(config, seed))
    suites = {
        "axioms": lambda: _suite_axioms(config, seed, trials),
        "quotient": lambda: _suite_quotient(config, seed, max(1, trials // 4)),
        "convergence": lambda: _suite_equivalence(tables(), "convergence"),
        "boundedness": lambda: _suite_equivalence(tables(), "boundedness"),
        "cauchy": lambda: _suite_equivalence(tables(), "cauchy"),
        "covering": _suite_covering,
    }
    ran = list(VERIFY_SUITES[:-1]) if suite == "all" else [suite]
    failures = [failure for name in ran for failure in suites[name]()]
    for failure in failures:
        print(f"FAIL {failure['check']}: {failure['witness']}")
    print(f"verify {suite}: {len(failures)} failure(s) across {', '.join(ran)} (seed={seed}, trials={trials})")
    inputs = {"config": config.raw, "suite": suite, "seed": seed, "trials": trials}
    _report(args, "verify", inputs, {"suites": ran, "failure_count": len(failures)}, failures)
    return 1 if failures else 0


def cmd_demo_counterexample(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    record = counterexample_r5(k_max=args.k)
    tol = DEFAULT_TOL
    print("sequence x_k = (0,0,0,0,k) in R^5, standard basis frame")
    print("k   |.|*{1,2}  |.|*{3,4}  |.|*{1,5}")
    for k, v12, v34, v15 in record.rows:
        print(f"{k:<3d} {fmt(v12, tol):>9} {fmt(v34, tol):>9} {fmt(v15, tol):>9}")
    nc = record.noncovering_verdict.conclusion.value
    cv = record.covering_verdict.conclusion.value
    print(f"selection {{1,2}},{{3,4}} covers: {record.noncovering_covers} -> verdict {nc} (false conclusion)")
    print(f"selection {{1,2}},{{3,4}},{{1,5}} covers: {record.covering_covers} -> verdict {cv}")
    results = {
        "rows": [list(r) for r in record.rows],
        "noncovering": {"covers": record.noncovering_covers, "verdict": nc},
        "covering": {"covers": record.covering_covers, "verdict": cv},
    }
    _report(args, "demo.counterexample", {"k": args.k}, results, csv=emit_trace_csv(record.traces))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subcommands' parsers, that
    reads a token of a minus sign and a digit (or a point and a digit), such
    as -1,2,3, as a value: a vector whose first coordinate is negative. No
    flag starts so, and argparse alone passes only a plain negative number;
    a flag with no value, as in `-u -s 1`, is still a usage error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    `main` call; parsing leaves it unchanged."""
    parser = _Parser(prog="nnormkit", description=__doc__.splitlines()[0])

    # each subcommand takes only the flags it reads
    flags = {
        "--config": {"help": "JSON config with space/frame/tolerances/seed/trials"},
        "--seed": {"type": int, "default": None, "help": "seed for randomized checks"},
        "--trials": {"type": int, "default": None, "help": "samples per randomized check"},
        "--output": {"help": "write the report to this path"},
        "--format": {"choices": ("json", "csv"), "default": "json", "help": "report format"},
    }

    def add_flags(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="standard n-norm of the given vectors")
    p_norm.add_argument("vector", nargs="+", help="comma-separated coordinates, e.g. 2,0,0")
    add_flags(p_norm, "--config", "--output", "--format")
    p_norm.set_defaults(run=cmd_norm)

    p_quot = sub.add_parser("quotient", help="quotient norm of a vector for a removed index set")
    p_quot.add_argument("--vector", "-u", required=True, help="comma-separated coordinates")
    p_quot.add_argument("--indices", "-s", required=True, help="removed indices, e.g. 1,2 (1-based)")
    add_flags(p_quot, "--config", "--output", "--format")
    p_quot.set_defaults(run=cmd_quotient)

    p_cover = sub.add_parser("cover", help="covering condition and minimal cover families")
    p_cover.add_argument("--n", type=int, required=True)
    p_cover.add_argument("--m", type=int, required=True)
    p_cover.add_argument("--selection", help="semicolon-separated index sets, e.g. 1,2;3,4")
    p_cover.add_argument("--enumerate", action="store_true", help="list all minimal covering families")
    add_flags(p_cover, "--output")
    p_cover.set_defaults(run=cmd_cover)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    add_flags(p_verify, "--config", "--seed", "--trials", "--output")
    p_verify.set_defaults(run=cmd_verify)

    p_demo = sub.add_parser("demo", help="reproduce bundled demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_cex = demo_sub.add_parser("counterexample", help="the R^5 divergent sequence the covering condition catches")
    p_cex.add_argument("--k", type=int, default=10, help="trace the sequence for k = 1..K")
    add_flags(p_cex, "--output", "--format")
    p_cex.set_defaults(run=cmd_demo_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.run(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
