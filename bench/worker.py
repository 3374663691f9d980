"""One workload in one process: set up, time whole rounds, check every
output, and print the result as the last line of standard output.

Run through ``bench/run.py``, which pins BLAS threads and repeats the
set-up measurement. Imports of numpy and nnormkit happen inside the set-up
timer, so ``setup_s`` includes them.

Every item runs once per round, so a run holds several timings of each
item. Each timing is rescaled to the reference host speed with the kernel
in ``reference.py``, timed between segments of about a second, and each
item's rescaled timings are reduced to their median. The timing metrics are
taken over those per-item medians. ``setup_s`` is rescaled by the kernel
timed twice right after set-up."""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_tmp"
#: evidence values rechecked in mpmath per frame
ORACLE_POINTS_PER_FRAME = 8


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="stop after set-up and print setup_s")
    return p.parse_args(argv)


def failure_class(reason: str) -> str:
    return reason.split(": ", 1)[0]


class Ledger:
    """Counts attempted and failed items and keeps each distinct failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, item, output, error: str | None) -> None:
        self.attempted += 1
        reasons = [error] if error is not None else item.check(output)
        if reasons:
            self.failed += 1
        for reason in reasons:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def classes(self) -> set[str]:
        return {failure_class(r) for r in self.reasons}


def run_item(item):
    """Time one item; an exception is the item's failure, not the run's."""
    start = time.perf_counter()
    try:
        output, error = item.run(), None
    except Exception as exc:  # the item failed; record why and go on
        output, error = None, f"raised:{type(exc).__name__}: {item.label}: {exc}"
    return time.perf_counter() - start, output, error


def run_round(workload, ledger: Ledger, tracer=None) -> tuple[list[float], list]:
    times, outputs = [], []
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        elapsed, output, error = run_item(item)
        times.append(elapsed)
        outputs.append(output)
        ledger.record(item, output, error)
    return times, outputs


def run_probe(workload) -> tuple[Ledger, list]:
    """Run the workload's probe once, untimed, on a ledger of its own."""
    ledger, outputs = Ledger(), []
    for item in workload.probe:
        _, output, error = run_item(item)
        outputs.append(output)
        ledger.record(item, output, error)
    return ledger, outputs


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def oracle_points(workload, items, outputs, seed: int) -> list[tuple]:
    """A seed-determined sample of returned values, the same count per frame."""
    import numpy as np

    by_frame: dict[int, list[tuple]] = {}
    for item, output in zip(items, outputs):
        if output is None or not item.context:
            continue
        for point in workload.value_points(item, output):
            by_frame.setdefault(id(point[0]), []).append(point)
    rng = np.random.default_rng(seed)
    sample = []
    for points in by_frame.values():
        picks = rng.choice(len(points), size=min(ORACLE_POINTS_PER_FRAME, len(points)), replace=False)
        sample += [points[i] for i in sorted(picks)]
    return sample


def value_errors(workload, items, outputs, seed: int) -> dict:
    """Worst error of the oracle sample, in log10, with the sample size."""
    import oracle
    from nnormkit.quotient import SPAN_DECISION_REL

    points = oracle_points(workload, items, outputs, seed)
    errors = oracle.relative_errors(points, SPAN_DECISION_REL)
    return {"value_err_log10": oracle.worst_log10(errors), "value_err_points": len(points)}


def rescaled_round(workload, ledger: Ledger, before_ms: float) -> tuple[list[float], list, list[float]]:
    """One round, with the reference kernel timed after each segment of
    about reference.SEGMENT_S. Each item's time is rescaled by the kernel
    times on both sides of its segment. Returns the rescaled times, the
    outputs and every kernel time after `before_ms`."""
    import reference

    rescaled, outputs, kernels, segment = [], [], [], []
    segment_started = time.perf_counter()
    for index, item in enumerate(workload.items):
        elapsed, output, error = run_item(item)
        segment.append(elapsed)
        outputs.append(output)
        ledger.record(item, output, error)
        if time.perf_counter() - segment_started >= reference.SEGMENT_S or index == len(workload.items) - 1:
            after_ms = reference.kernel_ms()
            factor = reference.scale(before_ms, after_ms)
            rescaled += [t * factor for t in segment]
            kernels.append(after_ms)
            before_ms, segment = after_ms, []
            segment_started = time.perf_counter()
    return rescaled, outputs, kernels


def timed_run(workload, seconds: float) -> tuple[dict, dict, Ledger, list]:
    """Time whole rounds for about `seconds`, and reduce each item's
    rescaled times to their median. Returns the metrics, notes, ledger and
    the first round's outputs."""
    import reference
    import stats

    ledger = Ledger()
    timings: list[list[float]] = [[] for _ in workload.items]
    first_outputs = None
    rounds = 0
    gc.collect()
    kernels = [reference.kernel_ms()]
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        round_times, outputs, round_kernels = rescaled_round(workload, ledger, kernels[-1])
        kernels += round_kernels
        for samples, elapsed in zip(timings, round_times):
            samples.append(elapsed)
        if first_outputs is None:
            first_outputs = outputs
        rounds += 1
        if rounds == workload.min_rounds:
            # after a fixed amount of work, so the round count cannot move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if rounds >= workload.min_rounds and (now - started) + (now - round_started) > seconds:
            break

    typical = [statistics.median(samples) for samples in timings]
    level = stats.tail_level(len(typical))
    _, beyond = stats.nearest_rank(typical, level)
    metrics = {
        "items_per_s": {"value": len(typical) / sum(typical), "unit": "items/s"},
        "call_p50_ms": {"value": 1e3 * stats.harrell_davis(typical, 0.5), "unit": "ms"},
        "call_tail_ms": {"value": 1e3 * stats.harrell_davis(typical, level / 100.0), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    notes = {
        "items": len(typical),
        "rounds": rounds,
        "wall_s": time.perf_counter() - started,
        "round_s_rescaled": sum(typical),
        "kernel_ms_median": statistics.median(kernels),
        "kernel_ms_range": [min(kernels), max(kernels)],
        "kernel_timings": len(kernels),
        "tail_percentile": level,
        "tail_items_beyond": beyond,
    }
    return metrics, notes, ledger, first_outputs


def traced_run(workload, tracer) -> tuple[dict, dict, Ledger]:
    """One untraced round, then the same round traced. Counts cover set-up
    and the traced round, both fixed by the seed, so they repeat exactly."""
    import spans

    tracer.uninstall()
    ledger = Ledger()
    gc.collect()
    plain_times, _ = run_round(workload, ledger)
    tracer.install()
    traced_times, _ = run_round(workload, ledger, tracer)
    tracer.uninstall()
    leftover = spans.traced_bindings()

    summary = tracer.summary()
    metrics = {}
    layer_self: dict[str, float] = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    norm_row = summary["nnorm.standard_norm"]
    metrics["nnorm.standard_norm.us_per_call"] = {
        "value": 1e6 * norm_row["total_s"] / max(norm_row["calls"], 1),
        "unit": "us",
    }
    for name, share in tracer.distinct_shares().items():
        metrics[f"{name}.distinct_share"] = {"value": share, "unit": "ratio"}
    metrics["trace_overhead"] = {"value": sum(traced_times) / sum(plain_times), "unit": "ratio"}
    notes = {
        "items": len(traced_times),
        "spans": tracer.span_count(),
        "untraced_s": sum(plain_times),
        "traced_s": sum(traced_times),
        "wrappers_left": leftover,
        "distinct_inputs": {name: len(seen) for name, seen in tracer.seen.items()},
    }
    return metrics, notes, ledger


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nnormkit  # noqa: F401  (timed as part of set-up)

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - started
        if not args.trace:
            import reference

            setup_s *= reference.scale(reference.kernel_ms(), reference.kernel_ms())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probe = None
        if tracer is not None:
            metrics, notes, ledger = traced_run(workload, tracer)
        else:
            metrics, notes, ledger, outputs = timed_run(workload, args.seconds)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            probe_outputs = []
            if workload.probe:
                probe, probe_outputs = run_probe(workload)
            if workload.value_points is not None:
                notes.update(value_errors(workload, workload.items + workload.probe, outputs + probe_outputs, args.seed))

    # a timed item must pass; the probe may fail only in its known classes
    unexpected = ledger.classes() | (probe.classes() - set(workload.known_failures) if probe else set())
    correct = not unexpected and not notes.get("wrappers_left")
    notes.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failed_share": ledger.failed / ledger.attempted,
            "unexpected_failure_classes": sorted(unexpected),
            "host": host_info(),
        }
    )
    if probe is not None:
        notes["probe"] = {
            "attempted": probe.attempted,
            "failed": probe.failed,
            "failed_share": probe.failed / probe.attempted,
            "failure_classes": sorted(probe.classes()),
        }
    print("notes: " + json.dumps(notes, sort_keys=True))
    for reason, count in sorted(ledger.reasons.items()):
        print(f"failed item (x{count}): {reason}")
    for reason, count in sorted(probe.reasons.items() if probe else ()):
        print(f"known defect (x{count}): {reason}")
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
