"""Spans around the library's boundary functions, recorded from outside.

``Tracer.install`` replaces each boundary function with a wrapper in every
``sloccrank.*`` module that bound it (``coeffmatrix`` binds ``bareiss`` at
import, for example) and ``Tracer.restore`` puts the originals back.
Spans are not stored one by one: each call adds to an aggregate keyed by
(function, innermost traced caller).

Self time is span time minus the time of traced children, where a child's
time includes its wrapper's own bookkeeping; the bookkeeping therefore
lands in no layer's self time and shows only as tracing overhead.
"""

from __future__ import annotations

import sys
import time

BOUNDARIES = (
    ("sloccrank.states", "parse_state"),
    ("sloccrank.scalars", "common_denominator"),
    ("sloccrank.coeffmatrix", "coefficient_matrix"),
    ("sloccrank.coeffmatrix", "rank"),
    ("sloccrank.coeffmatrix", "rank_signature"),
    ("sloccrank.coeffmatrix", "reduced_density"),
    ("sloccrank._kernels", "bareiss"),
    ("sloccrank._kernels", "apply_single_qubit"),
    ("sloccrank.families", "instantiate"),
    ("sloccrank.families", "rank_triple"),
    ("sloccrank.families", "sample_predicate"),
    ("sloccrank.families", "Predicate.holds"),
    ("sloccrank.slocc", "apply_local"),
    ("sloccrank.slocc", "random_invertible_local"),
    ("sloccrank.invariants", "dxy"),
    ("sloccrank.invariants", "f1"),
    ("sloccrank.invariants", "f2"),
    ("sloccrank.separability", "recursive_rank"),
    ("sloccrank.separability", "separability_partition"),
    ("sloccrank.tables", "run_table"),
    ("sloccrank.checks", "run_check"),
)

ROOT = "-"


def layer_name(module: str, qualname: str) -> str:
    """Metric prefix: the module's last component without a leading underscore."""
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{qualname}"


def _bareiss_counts(counters, args, result):
    entries, rows, cols = args[0], args[1], args[2]
    zeros = 0
    bits = 0
    for q in entries:
        if not (q[0] or q[1] or q[2] or q[3]):
            zeros += 1
        else:
            for x in q:
                b = abs(x).bit_length()
                if b > bits:
                    bits = b
    counters["cells"] += rows * cols
    counters["zero_cells"] += zeros
    counters["full_rank"] += result[0] == min(rows, cols)
    if bits > counters["max_input_bits"]:
        counters["max_input_bits"] = bits


def _coefficient_matrix_counts(counters, args, result):
    counters["cells"] += result.rows * result.cols


def _common_denominator_counts(counters, args, result):
    counters["unit_den"] += result[1] == 1


COUNTERS = {
    "kernels.bareiss": (
        _bareiss_counts,
        {"cells": 0, "zero_cells": 0, "full_rank": 0, "max_input_bits": 0},
    ),
    "coeffmatrix.coefficient_matrix": (_coefficient_matrix_counts, {"cells": 0}),
    "scalars.common_denominator": (_common_denominator_counts, {"unit_den": 0}),
}


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Aggregated spans for the boundary functions while installed."""

    def __init__(self):
        self.stack: list[_Frame] = []
        # (name, parent) -> [calls, span seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self.stack
        spans = self.spans
        count, initial = COUNTERS.get(name, (None, None))
        counters = None
        if count is not None:
            counters = self.counters[name] = dict(initial)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1].name if stack else ROOT
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
            key = (name, parent)
            agg = spans.get(key)
            if agg is None:
                agg = spans[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += span
            agg[2] += span - frame.child
            if count is not None:
                count(counters, args, result)
            if stack:
                stack[-1].child += clock() - enter
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def exclude(self, seconds: float) -> None:
        """Keep time spent by the harness inside a traced call out of self times."""
        if self.stack:
            self.stack[-1].child += seconds

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "sloccrank" or k.startswith("sloccrank.")]
        for module_name, qualname in BOUNDARIES:
            name = layer_name(module_name, qualname)
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def snapshot(self) -> dict:
        """JSON form of the aggregates."""
        return {
            "spans": [[n, p, c, s, f] for (n, p), (c, s, f) in sorted(self.spans.items())],
            "counters": self.counters,
            "missing": list(self.missing),
        }


def layer_totals(snapshot: dict) -> dict[str, dict[str, float]]:
    """Per function: calls, span and self seconds summed over callers."""
    out: dict[str, dict[str, float]] = {}
    for module_name, qualname in BOUNDARIES:
        out[layer_name(module_name, qualname)] = {"calls": 0, "span_s": 0.0, "self_s": 0.0}
    for name, _parent, calls, span, self_s in snapshot["spans"]:
        row = out.setdefault(name, {"calls": 0, "span_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["span_s"] += span
        row["self_s"] += self_s
    return out
