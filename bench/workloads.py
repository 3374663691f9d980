"""The benchmark's workloads: inputs, items and output checks.

Every input is generated here from the workload seed, and the seed itself
is what every seeded nnormkit call and the frame generator receive (as
``nnormkit verify --seed`` does). Nothing is imported from the repository's
tests, so editing them cannot move the benchmark.

An item is one timed call into nnormkit's public API. Its check returns the
reasons it failed, each as ``"<class>: <detail>"``; an empty list is a pass.
A round is the workload's whole item list; a run times whole rounds. A
workload's probe holds the inputs on which the program is known to fail:
it runs once per run, untimed, and its failures are reported apart.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import nnormkit as nk
import nnormkit.cli as nk_cli

C = nk.Conclusion


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    #: inputs an accuracy oracle needs to recompute the returned values
    context: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    #: rounds every run completes, so every item has several timings
    min_rounds: int
    #: items in the regime of a defect known when the benchmark was written
    probe: list[Item] = field(default_factory=list)
    #: failure classes the probe is expected to show; any other failure,
    #: and any failure of a timed item, makes the run incorrect
    known_failures: tuple[str, ...] = ()
    #: turns (item, output) into (frame, w, subset, value) points to recheck
    value_points: Callable[[Item, object], list[tuple]] | None = None


def _check_reports(reports, prefix: str, where: str) -> list[str]:
    return [
        f"{prefix}:{r.axiom.value}: {where} discrepancy={r.witness.discrepancy:.3e}"
        for r in reports
        if not r.passed
    ]



# ---------------------------------------------------------------------------
# equivalence_corpus


EQUIVALENCE_FRAMES = 3
#: corpus entries per sequence kind, per arity n (d = n + 2). As many tables
#: are cheaper than the n = 4 ones as costlier, so the median item falls
#: inside the n = 4 tables rather than on the edge between two arities.
EQUIVALENCE_PER_KIND = {2: 1, 3: 2, 4: 3, 5: 3}

CONVERGENT = {"convergence": C.CONVERGES, "boundedness": C.BOUNDED, "cauchy": C.CAUCHY}
WRONG_LIMIT = {"convergence": C.DIVERGES, "boundedness": C.BOUNDED, "cauchy": C.CAUCHY}
DIVERGENT = {"convergence": C.DIVERGES, "boundedness": C.UNBOUNDED, "cauchy": C.NOT_CAUCHY}
OSCILLATING = {"convergence": C.DIVERGES, "boundedness": C.BOUNDED, "cauchy": C.NOT_CAUCHY}


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _direction(rng, d: int, span_rows: np.ndarray | None, in_span: bool) -> np.ndarray:
    if in_span:
        n = span_rows.shape[0]
        coeffs = rng.uniform(0.25, 1.0, n) * rng.choice([-1.0, 1.0], n)
        return _unit(span_rows.T @ coeffs)
    v = rng.uniform(-1.0, 1.0, d)
    v[int(rng.integers(0, d))] += 1.0  # keep generic directions away from zero
    return _unit(v)


def closed_form_corpus(rng, d: int, span_rows: np.ndarray, per_kind: int) -> list[tuple]:
    """(spec, candidate limit, expected conclusions) for all four closed-form
    kinds. Every third direction lies in the span of span_rows. Against a
    full class-m collection the conclusions are those of ordinary
    convergence in R^d, whatever the frame, so they follow from the closed
    forms alone."""
    out = []
    for i in range(per_kind):
        x = rng.uniform(-1.0, 1.0, d)
        v = _direction(rng, d, span_rows, i % 3 == 0)
        c = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
        p = float(rng.uniform(0.5, 2.0))
        spec = nk.convergent_power(x, v, coefficient=c, exponent=p)
        if i % 2 == 1:
            out.append((spec, x + _direction(rng, d, span_rows, False), WRONG_LIMIT))
        else:
            out.append((spec, x, CONVERGENT))
    for i in range(per_kind):
        out.append((nk.divergent_linear(_direction(rng, d, span_rows, i % 3 == 0)), np.zeros(d), DIVERGENT))
    for i in range(per_kind):
        x = rng.uniform(-1.0, 1.0, d)
        v = _direction(rng, d, span_rows, i % 3 == 0)
        out.append((nk.oscillating(x, v, coefficient=float(rng.uniform(0.25, 2.0))), x, OSCILLATING))
    for i in range(per_kind):
        x = rng.uniform(-2.0, 2.0, d)
        if i % 2 == 1:
            out.append((nk.constant(x), x + _direction(rng, d, span_rows, i % 3 == 0), WRONG_LIMIT))
        else:
            out.append((nk.constant(x), x, CONVERGENT))
    return out


def _check_table(table, expected: dict, where: str) -> list[str]:
    reasons = []
    if not table.agrees():
        verdicts = {w: [c.value for c in table.conclusions(w)] for w in expected}
        reasons.append(f"equivalence:cross_class: {where} {verdicts}")
    for which, conclusion in expected.items():
        got = table.conclusions(which)[0]
        if got is not conclusion:
            reasons.append(f"equivalence:{which}: {where} expected {conclusion.value}, got {got.value}")
    for row in table.rows:
        if row.convergence.conclusion is C.CONVERGES and row.cauchy.conclusion is not C.CAUCHY:
            reasons.append(f"equivalence:converges_not_cauchy: {where} m={row.m}")
    return reasons


def _table_points(item: Item, table) -> list[tuple]:
    spec, frame, limit = item.context["spec"], item.context["frame"], item.context["limit"]
    points = []
    for row in table.rows:
        for p in row.convergence.evidence:
            points.append((frame, nk.eval_sequence(spec, p.k) - limit, p.subset, p.value))
        for p in row.boundedness.evidence:
            points.append((frame, nk.eval_sequence(spec, p.k), p.subset, p.value))
        for p in row.cauchy.evidence:
            w = nk.eval_sequence(spec, 2 * p.k) - nk.eval_sequence(spec, p.k)
            points.append((frame, w, p.subset, p.value))
    return points


def equivalence_corpus(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for n, per_kind in EQUIVALENCE_PER_KIND.items():
        d = n + 2
        cfg = nk.SpaceConfig(dim=d, arity=n)
        norm = nk.standard_nnorm(cfg)
        frames = [nk.random_frame(cfg, rng) for _ in range(EQUIVALENCE_FRAMES)]
        corpus = closed_form_corpus(rng, d, frames[0].vectors, per_kind)
        for e, (spec, limit, expected) in enumerate(corpus):
            for f, frame in enumerate(frames):
                where = f"n={n} d={d} {spec.kind.value}#{e} frame#{f}"
                items.append(
                    Item(
                        label=f"equivalence_matrix {where}",
                        run=lambda spec=spec, frame=frame, norm=norm, limit=limit: nk.equivalence_matrix(spec, frame, norm, limit),
                        check=lambda table, expected=expected, where=where: _check_table(table, expected, where),
                        context={"spec": spec, "frame": frame, "limit": limit},
                    )
                )
    return Workload(items, min_rounds=3, value_points=_table_points)


# ---------------------------------------------------------------------------
# quotient_sampled


QUOTIENT_SHAPES = ((3, 3), (3, 5), (5, 5), (5, 6))
QUOTIENT_TRIALS = 6
TABLE_LENGTH = 6
TABLES_PER_KIND = 4


def _injected(cfg):
    # looked up at call time, so a traced run sees these calls too
    return nk.NNorm(cfg, "injected", lambda vs: nk.nnorm.standard_norm(cfg, vs))


def _check_sampled(verdicts, expected: dict, where: str) -> list[str]:
    reasons = []
    for which, verdict in zip(("convergence", "cauchy", "boundedness"), verdicts):
        got = verdict.conclusion
        if got is not C.INCONCLUSIVE and got is not expected[which]:
            reasons.append(f"sampled:{which}: {where} closed form {expected[which].value}, sampled {got.value}")
    return reasons


def _triple(table, frame, norm, selection, limit):
    return (
        nk.converges_wrt(table, frame, norm, selection, limit),
        nk.is_cauchy_wrt(table, frame, norm, selection),
        nk.is_bounded_wrt(table, frame, norm, selection),
    )


def _triple_points(item: Item, verdicts) -> list[tuple]:
    frame, table, limit = item.context["frame"], item.context["table"], item.context["limit"]
    rows = dict(table.table)
    converges, _, bounded = verdicts  # Cauchy evidence is a max over pairs
    points = [(frame, rows[p.k] - limit, p.subset, p.value) for p in converges.evidence]
    points += [(frame, rows[p.k], p.subset, p.value) for p in bounded.evidence]
    return points


def _sequence_tables(rng, frame) -> list[tuple]:
    """(tabulated spec, candidate limit, closed-form conclusions) per frame:
    each closed-form kind TABLES_PER_KIND times, half of them with a
    direction in the frame's span."""
    d = frame.dim
    out = []
    for t in range(TABLES_PER_KIND):
        in_span = t % 2 == 0
        x = rng.uniform(-1.0, 1.0, d)
        out += [
            (nk.convergent_power(x, _direction(rng, d, frame.vectors, in_span), coefficient=1.5), x, CONVERGENT),
            (nk.divergent_linear(_direction(rng, d, frame.vectors, in_span)), np.zeros(d), DIVERGENT),
            (nk.oscillating(x, _direction(rng, d, frame.vectors, in_span), coefficient=0.75), x, OSCILLATING),
            (nk.constant(x), x + _direction(rng, d, frame.vectors, in_span), WRONG_LIMIT),
        ]
    tables = []
    for spec, limit, expected in out:
        table = nk.custom_sequence([(k, nk.eval_sequence(spec, k)) for k in range(1, TABLE_LENGTH + 1)])
        tables.append((spec.kind, table, limit, expected))
    return tables


def quotient_sampled(seed: int, workdir: str) -> Workload:
    """Sampled verdicts on tabulated sequences, timed; quotient axioms and
    divergent tables, probed.

    Two kinds of item fail on today's code for many seeds, so they form the
    probe instead of timed items. `quotient_norm_axioms` fails on d = n
    frames (forward definiteness), and wherever a sampled u lands in the
    kept span (homogeneity has no zero band; the axiom sampler and the
    frame generator both start from the seed, so a frame row can recur as
    a sample). Sampled verdicts on tabulated `divergent_linear` sequences
    fail because a finite table is always bounded and its tail diameters
    shrink. The probe runs the axioms on each shape's standard-norm frame.
    """
    rng = np.random.default_rng(seed)
    items, probe = [], []
    for n, d in QUOTIENT_SHAPES:
        cfg = nk.SpaceConfig(dim=d, arity=n)
        for injected in (False, True):
            frame = nk.random_frame(cfg, rng)
            norm = _injected(cfg) if injected else nk.standard_nnorm(cfg)
            tag = f"n={n} d={d} {norm.kind}"
            subsets = [] if injected else [s for m in range(1, n + 1) for s in nk.class_collection(n, m)]
            for s in subsets:
                where = f"{tag} s={s}"
                probe.append(
                    Item(
                        label=f"quotient_norm_axioms {where}",
                        run=lambda frame=frame, norm=norm, s=s: nk.quotient_norm_axioms(
                            frame, norm, s, QUOTIENT_TRIALS, seed
                        ),
                        check=lambda reports, where=where: _check_reports(reports, "quotient", where),
                    )
                )
            for t, (kind, table, limit, expected) in enumerate(_sequence_tables(rng, frame)):
                # every kind against both the full class-1 and class-n selections
                selection = nk.full_selection(n, 1 if (t + t // 4) % 2 == 0 else n)
                where = f"{tag} {kind.value} table#{t} m={selection.m}"
                (probe if kind is nk.SequenceKind.DIVERGENT_LINEAR else items).append(
                    Item(
                        label=f"sampled verdicts {where}",
                        run=lambda table=table, frame=frame, norm=norm, selection=selection, limit=limit: _triple(
                            table, frame, norm, selection, limit
                        ),
                        check=lambda verdicts, expected=expected, where=where: _check_sampled(verdicts, expected, where),
                        context={"frame": frame, "table": table, "limit": limit},
                    )
                )
    return Workload(
        items,
        min_rounds=3,
        probe=probe,
        known_failures=(
            "quotient:definiteness_forward",
            "quotient:absolute_homogeneity",
            "quotient:triangle_inequality",
            "sampled:cauchy",
            "sampled:boundedness",
        ),
        value_points=_triple_points,
    )


# ---------------------------------------------------------------------------
# verify_cli


CLI_TRIALS = 20
CLI_SUITES = ("axioms", "quotient", "convergence", "boundedness", "cauchy", "covering")


def _spd_metric(rng, d: int) -> list[list[float]]:
    a = rng.normal(size=(d, d))
    m = a @ a.T / d + np.eye(d)
    return (0.5 * (m + m.T)).tolist()


def _check_cli(code: int, output: str, where: str) -> list[str]:
    if code != 0:
        return [f"cli:exit_code: {where} returned {code}"]
    with open(output, encoding="utf-8") as fh:
        failures = json.load(fh)["failures"]
    return [f"cli:failures: {where} {failures}"] if failures else []


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return nk_cli.main(argv)


def verify_cli(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    configs = {
        "default": {},
        "n2d2_metric": {"space": {"dim": 2, "arity": 2, "metric": _spd_metric(rng, 2)}},
        "n2d4": {"space": {"dim": 4, "arity": 2}},
        "n2d3_metric": {"space": {"dim": 3, "arity": 2, "metric": _spd_metric(rng, 3)}},
        "n3d4": {"space": {"dim": 4, "arity": 3}},
        "n3d3_metric": {"space": {"dim": 3, "arity": 3, "metric": _spd_metric(rng, 3)}},
        "n4d6": {"space": {"dim": 6, "arity": 4}},
        "n5d5_metric": {"space": {"dim": 5, "arity": 5, "metric": _spd_metric(rng, 5)}},
    }
    paths = {}
    for name, raw in configs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    # every suite of `verify all` on the n = 2 configs; on the larger ones the
    # suites whose cost follows --trials, plus the covering suite
    small, large = ("default", "n2d2_metric", "n2d4", "n2d3_metric"), ("n3d4", "n3d3_metric", "n4d6", "n5d5_metric")
    runs = [(suite, name) for name in small for suite in CLI_SUITES]
    runs += [(suite, name) for name in large for suite in ("axioms", "quotient", "covering")]
    items = []
    for suite, name in runs:
        output = os.path.join(workdir, f"report_{suite}_{name}.json")
        argv = ["verify", suite, "--trials", str(CLI_TRIALS), "--seed", str(seed), "--config", paths[name], "--output", output]
        where = f"verify {suite} config={name}"
        items.append(
            Item(
                label=where,
                run=lambda argv=argv: _run_cli(argv),
                check=lambda code, output=output, where=where: _check_cli(code, output, where),
            )
        )
    return Workload(items, min_rounds=4)


WORKLOADS = {
    "equivalence_corpus": equivalence_corpus,
    "quotient_sampled": quotient_sampled,
    "verify_cli": verify_cli,
}
