"""Span tracing around nnormkit's public functions, installed from outside.

The package binds its kernels by name in several module namespaces
(``from .linalg import determinant`` and the like), so a wrapper installed
on ``nnormkit.linalg`` alone would miss the calls made from ``nnorm``,
``quotient`` and ``topology``. `Tracer.install` replaces the function in
every namespace that bound it, and `Tracer.uninstall` puts every original
back. Classes are traced through their ``__init__``.

Spans are kept in memory in compact column arrays: name id, start, end,
parent span and item id. A span's self time is its duration minus the time
its child spans cover. Everything runs in one thread, so the children of a
span never overlap and lie inside it; the covered time is their sum.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

#: traced public functions per layer; the layer is the nnormkit module
LAYERS = {
    "linalg": ("as_vector", "inner", "gram_matrix", "determinant", "rank", "hadamard_scale"),
    "nnorm": ("standard_norm", "check_axioms", "shift_invariance_check"),
    "quotient": (
        "Frame",
        "random_frame",
        "class1_norm",
        "classm_norm",
        "is_quotient_zero",
        "in_kept_span",
        "coset_invariance_check",
        "quotient_norm_axioms",
    ),
    "topology": (
        "class1_profile",
        "zero_profile",
        "AnalyticTraces",
        "converges_wrt",
        "is_cauchy_wrt",
        "is_bounded_wrt",
        "equivalence_matrix",
        "enumerate_minimal_covers",
        "counterexample_r5",
    ),
    "cli": ("main",),
}

#: namespaces searched for bindings of the traced functions
MODULES = (
    "nnormkit",
    "nnormkit.linalg",
    "nnormkit.nnorm",
    "nnormkit.quotient",
    "nnormkit.topology",
    "nnormkit.cli",
)

NO_PARENT = -1


def _vector_bytes(x) -> bytes:
    import numpy as np

    return np.asarray(x, dtype=float).tobytes()


def _space_key(cfg) -> tuple:
    metric = None if cfg.metric is None else cfg.metric.tobytes()
    return (cfg.dim, cfg.arity, metric, cfg.tol)


def _frame_key(frame, norm) -> tuple:
    return (_space_key(frame.space), frame.vectors.tobytes(), norm.kind)


def _key_standard_norm(cfg, vs):
    return hash((_space_key(cfg), b"".join(_vector_bytes(v) for v in vs)))


def _key_classm_norm(frame, norm, u, s):
    return hash((_frame_key(frame, norm), _vector_bytes(u), tuple(s.indices)))


def _key_zero_profile(frame, norm, w):
    return hash((_frame_key(frame, norm), _vector_bytes(w)))


#: functions whose inputs are hashed to measure how many calls repeat work
DISTINCT_KEYS = {
    "nnorm.standard_norm": _key_standard_norm,
    "quotient.classm_norm": _key_classm_norm,
    "topology.zero_profile": _key_zero_profile,
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.names = traced_names()
        self.name_ids = array("H")
        self.parents = array("l")
        self.items = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.item = NO_PARENT
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []
        self.seen = {name: set() for name in DISTINCT_KEYS}

    # -- installation --------------------------------------------------

    def _wrap_function(self, fn, name_id: int, key_fn, seen):
        name_ids, parents, items = self.name_ids, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                seen.add(key_fn(*args, **kwargs))
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end

        wrapper.__bench_traced__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every namespace that bound it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for name_id, qualified in enumerate(self.names):
            layer, fn_name = qualified.split(".")
            original = getattr(importlib.import_module(f"nnormkit.{layer}"), fn_name)
            key_fn = DISTINCT_KEYS.get(qualified)
            seen = self.seen.get(qualified)
            if isinstance(original, type):
                init = original.__init__
                self._patched.append((original, "__init__", init))
                original.__init__ = self._wrap_function(init, name_id, key_fn, seen)
                continue
            wrapper = self._wrap_function(original, name_id, key_fn, seen)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original the tracer replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: exact call count, self time and total time."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        selfs = self_times(durations, self.parents)
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for name_id, duration, own in zip(self.name_ids, durations, selfs):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += duration
        return out

    def distinct_shares(self) -> dict[str, float]:
        """Distinct inputs over calls, per hashed function (1.0 with no calls)."""
        shares = {}
        for name, seen in self.seen.items():
            calls = self.name_ids.count(self.names.index(name))
            shares[name] = len(seen) / calls if calls else 1.0
        return shares


def self_times(durations, parents) -> list[float]:
    """Duration minus the time covered by direct children, per span.

    Children of a span run inside it and, in a single thread, one after
    another, so the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(durations)
    for duration, parent in zip(durations, parents):
        if parent != NO_PARENT:
            covered[parent] += duration
    return [d - c for d, c in zip(durations, covered)]


def is_traced(obj) -> bool:
    return bool(getattr(obj, "__bench_traced__", False))


def traced_bindings() -> list[str]:
    """Names in nnormkit's namespaces (and traced class initialisers) that
    still point at a tracing wrapper; empty after `Tracer.uninstall`."""
    found = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for attr, value in vars(module).items():
            if is_traced(value):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and is_traced(vars(value).get("__init__")):
                found.append(f"{module_name}.{attr}.__init__")
    return found
