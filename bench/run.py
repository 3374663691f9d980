"""nnormkit benchmark launcher.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload in its own worker process with BLAS and OpenMP threads
pinned to 1, and prints the worker's report. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; the
launcher also runs set-up alone in SETUP_REPEATS more processes, half
before the measured worker and half after it, and reports the median
``setup_s`` of all of them. With ``--trace 1`` they are the
per-layer ones from a traced round. ``--workload all`` runs every workload
in turn. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("equivalence_corpus", "quotient_sampled", "verify_cli")
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    env.pop("NNORMKIT_SEED", None)  # would override --seed inside the CLI workload
    env["PYTHONHASHSEED"] = "0"  # distinct-input counts hash bytes; keep them repeatable
    return env


def run_worker(args, extra: list[str], timeout: float) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return lines


def run_one(args) -> dict:
    def setup_alone() -> float:
        return json.loads(run_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)[-1])["setup_s"]

    before = [] if args.trace else [setup_alone() for _ in range(SETUP_REPEATS // 2)]
    lines = run_worker(args, [], RUN_TIMEOUT_S)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        after = [setup_alone() for _ in range(SETUP_REPEATS - len(before))]
        setups = before + [result["metrics"]["setup_s"]["value"]] + after
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + json.dumps(setups))
        notes = next((json.loads(line[len("notes: ") :]) for line in lines if line.startswith("notes: ")), {})
        items = notes.get("items")
        for name, metric in result["metrics"].items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']} (items={items})")
        print(f"{args.workload} failed_share = {result['failed']}/{result['attempted']}")
        probe = notes.get("probe")
        if probe:
            print(f"{args.workload} known defects: probe failed_share = {probe['failed']}/{probe['attempted']}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nnormkit benchmark launcher")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nnormkit" / "__init__.py").is_file():
        print(f"error: no nnormkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_one(args)
        else:
            result = {}
            for name in WORKLOADS:
                result[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
