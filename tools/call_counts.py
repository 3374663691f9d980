"""Count one benchmark round's evaluator calls and volume-kernel calls.

    python3 tools/call_counts.py [checkout] [seed]

Builds each workload of ``bench/workloads.py`` in <checkout> (default: the
checkout this tool is in) at the seed (default 101), runs its timed items
once untimed, as a warm-up, then once more while counting, and prints one
line per workload:

    <workload>@<seed> evaluator=<E> volumes_one_tuple=<O> volumes_stacked=<S>

E counts `NNorm.__call__`, the one path by which every engine calls an
evaluator (an injected norm's values, and the probe a standard-kind norm
made inside an item checks itself on). O and S count `linalg._volumes`
calls on one (k, d) tuple and on a (B, k, d) stack. A round holds the timed
items only, as a benchmark round does: the workload's set-up and its probe
are not counted. The counts are exact and fixed by the seed, so two
checkouts can be compared line by line. The tool reads the workloads
without changing them and imports nothing from the tests.
"""

import os
import sys
import tempfile


def count_round(workload) -> dict:
    """Run the workload's timed items once and return the call counts."""
    from nnormkit import linalg, nnorm

    counts = {"evaluator": 0, "volumes_one_tuple": 0, "volumes_stacked": 0}
    call, volumes = nnorm.NNorm.__call__, linalg._volumes

    def counting_call(self, vs):
        counts["evaluator"] += 1
        return call(self, vs)

    def counting_volumes(cfg, tuples):
        counts["volumes_one_tuple" if tuples.ndim == 2 else "volumes_stacked"] += 1
        return volumes(cfg, tuples)

    # every module that bound `_volumes` by name calls the counting one
    modules = [m for name, m in sys.modules.items() if name.startswith("nnormkit.") and getattr(m, "_volumes", None) is volumes]
    nnorm.NNorm.__call__ = counting_call
    for module in modules:
        module._volumes = counting_volumes
    try:
        for item in workload.items:
            item.run()
    finally:
        nnorm.NNorm.__call__ = call
        for module in modules:
            module._volumes = volumes
    return counts


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seed = int(argv[2]) if len(argv) > 2 else 101
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads

    for name, build in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            workload = build(seed, tmp)
            for item in workload.items:
                item.run()
            counts = count_round(workload)
        print(f"{name}@{seed} " + " ".join(f"{key}={value}" for key, value in counts.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
