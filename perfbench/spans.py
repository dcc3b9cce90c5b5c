"""Spans around valext's layer functions, recorded from outside the program.

Tracer.install wraps each target at every place it is bound: the defining
module, every valext module that imported it by name (extensions holds its
own split_reduced, fpalgebra its own fp_rank, theorems its own value), and
the package namespace. Methods are wrapped on their class. Spans stay in
memory as (name, start, end, parent, op, outermost) tuples; Tracer.end_pass
folds them into per-pass totals from which layer_metrics reads.

Span times are CPU times of this process (time.process_time), like the op
times of the harness. Self time is a span's duration minus the durations of
its child spans.
total_s counts only the outermost span of a name, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute). Spans time the call; counters only
# count it, for methods too small and too frequent to time usefully.
SPANS = [
    ("cli.main", "cli", "main"),
    ("cli.run_command", "cli", "run_command"),
    ("cli.parse_defining_poly", "cli", "parse_defining_poly"),
    ("cli.parse_element", "cli", "parse_element"),
    ("cli.format_element", "cli", "format_element"),
    ("padic.is_prime", "padic", "is_prime"),
    ("orders.p_maximal_order", "orders", "p_maximal_order"),
    ("orders.discriminant", "orders", "discriminant"),
    ("orders.p_radical", "orders", "p_radical"),
    ("orders.ring_of_multipliers", "orders", "ring_of_multipliers"),
    ("orders.Order.mult_table_mod_p", "orders", "Order.mult_table_mod_p"),
    ("fpalgebra.quotient_mod_p", "fpalgebra", "quotient_mod_p"),
    ("fpalgebra.nilradical", "fpalgebra", "nilradical"),
    ("fpalgebra.quotient_by", "fpalgebra", "quotient_by"),
    ("fpalgebra.split_reduced", "fpalgebra", "split_reduced"),
    ("fpalgebra.lift_idempotents", "fpalgebra", "lift_idempotents"),
    ("extensions.extensions_of", "extensions", "extensions_of"),
    ("extensions.value", "extensions", "value"),
    ("extensions.decide_position", "extensions", "decide_position"),
    ("extensions.residue", "extensions", "residue"),
    ("numberfield.NFElem.min_poly", "numberfield", "NFElem.min_poly"),
    ("numberfield.NFElem.norm_trace", "numberfield", "NFElem.norm_trace"),
    ("numberfield.NFElem.inv", "numberfield", "NFElem.inv"),
    ("linalg.q_solve", "linalg", "q_solve"),
    ("linalg.q_det", "linalg", "q_det"),
    ("linalg.q_rank", "linalg", "q_rank"),
    ("linalg.q_inverse", "linalg", "q_inverse"),
    ("linalg.lattice_canonical", "linalg", "lattice_canonical"),
    ("linalg.lattice_coords", "linalg", "lattice_coords"),
    ("linalg.fp_rref", "linalg", "fp_rref"),
    ("linalg.fp_solve", "linalg", "fp_solve"),
    ("linalg.fp_kernel", "linalg", "fp_kernel"),
    ("theorems.weak_approx", "theorems", "weak_approx"),
    ("theorems.approx_element", "theorems", "approx_element"),
    ("theorems.build_ef_basis", "theorems", "build_ef_basis"),
    ("theorems.check_fundamental", "theorems", "check_fundamental"),
]
COUNTERS = [
    ("orders.Order.coords", "orders", "Order.coords"),
    ("fpalgebra.FpAlgebra.mul", "fpalgebra", "FpAlgebra.mul"),
    ("numberfield.NFElem.mul", "numberfield", "NFElem.__mul__"),
    ("numberfield.NFElem.mul", "numberfield", "NFElem.__rmul__"),
    ("linalg.fp_rank", "linalg", "fp_rank"),
]

SPLIT = "fpalgebra.split_reduced"
VALUE = "extensions.value"
MIN_POLY = "numberfield.NFElem.min_poly"
APPROX = "theorems.approx_element"


def coords_bits(coords) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coords),
               default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1  # index of the op being run, set by the caller
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self.passes = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.min_poly_bits: list[int] = []
        self.approx_bits = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.process_time
        on_call = {MIN_POLY: self._on_min_poly, "extensions.decide_position": self._on_decide}.get(name)
        on_return = {SPLIT: self._on_split, APPROX: self._on_approx}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = not active[name]
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, outer)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts, active = self.counts, self._active
        in_split = name == "linalg.fp_rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if in_split and active[SPLIT]:
                counts["split_rank_probes"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_min_poly(self, args):
        self.min_poly_bits.append(coords_bits(args[0].coords))

    def _on_decide(self, args):
        if self._active[VALUE]:
            self.counts["value_probes"] += 1

    def _on_split(self, dec):
        self.counts["split_components"] += len(dec.components)

    def _on_approx(self, x):
        self.approx_bits = max(self.approx_bits, coords_bits(x.coords))

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target at every binding in the loaded valext modules."""
        self.missing = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "valext" or k.startswith("valext."))]
        by_function = {}
        for make, targets in ((self._span, SPANS), (self._counter, COUNTERS)):
            for name, module, attr in targets:
                owner = sys.modules.get(f"valext.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(leaf) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"valext.{module}.{attr}")
                    continue
                wrapper = make(name, original)
                if path:
                    self._set(owner, leaf, wrapper)
                else:
                    by_function[id(original)] = (original, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = by_function.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- aggregation ------------------------------------------------------

    def end_pass(self) -> list:
        """Fold this pass's spans into the totals; returns the raw spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _, outer) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += (t1 - t0) - child[i]
            if outer:
                self.total[name] += t1 - t0
        raw = spans[:]
        spans.clear()
        self.passes += 1
        return raw

    def layer_metrics(self, names, overhead_frac: float) -> dict[str, float]:
        """Per-pass values of the named per-layer metrics."""
        k = max(self.passes, 1)
        c = self.counts
        special = {
            "orders.round2_steps": _ratio(self.calls["orders.ring_of_multipliers"],
                                          self.calls["orders.p_maximal_order"]),
            f"{SPLIT}.components": c["split_components"] / k,
            f"{SPLIT}.rank_probes": c["split_rank_probes"] / k,
            f"{SPLIT}.probes_per_component": _ratio(c["split_rank_probes"], c["split_components"]),
            f"{VALUE}.probes_per_call": _ratio(c["value_probes"], self.calls[VALUE]),
            f"{MIN_POLY}.input_bits_max": max(self.min_poly_bits, default=0),
            f"{MIN_POLY}.input_bits_p50": statistics.median(self.min_poly_bits)
            if self.min_poly_bits else 0,
            f"{APPROX}.output_bits_max": self.approx_bits,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name in names:
            base, _, kind = name.rpartition(".")
            if name in special:
                out[name] = special[name]
            elif kind == "calls":
                out[name] = (self.calls[base] + c[base]) / k
            elif kind == "total_s":
                out[name] = self.total[base] / k
            elif kind == "self_s":
                out[name] = self.self_time[base] / k
            else:
                raise KeyError(f"no rule computes per-layer metric {name!r}")
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0
