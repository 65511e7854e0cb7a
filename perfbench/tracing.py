"""Spans around the calls into each layer of steinberg, recorded from outside.

`Tracer` rebinds the public functions listed in TARGETS, at every module of
the package that holds them (modules import with `from .x import f`, and
`tate_local` reads `frobenius.count_reduced_points` at call time), to a
wrapper that appends (op, name, start, end, parent) to an in-memory list.
Leaving the `with` block restores the original functions.  Spans are written
out only when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from bisect import bisect_right
from collections import defaultdict

from checks import primes_up_to

TARGETS = {
    "arith": ("primes_up_to", "factorize", "is_prime", "kronecker"),
    "weierstrass": ("change_coordinates",),
    "local_reduction": ("tate_local", "conductor"),
    "frobenius": ("count_reduced_points", "ap_table"),
    "congruence": ("certify_congruence",),
    "certificates": ("check_theorem_a", "irreducibility_certificate"),
    "dataset": ("parse_curve_file", "scan_level"),
    "cli": ("run",),
}

# what a span keeps of its call, for the ratios below
INFO = {
    "frobenius.count_reduced_points": lambda args, result: args[1],  # p
    "frobenius.ap_table": lambda args, result: (result.model.a_invariants, len(result.entries)),
    "congruence.certify_congruence": lambda args, result: (
        (result.curve_a, result.curve_b),
        result.counterexample[0] if result.counterexample else result.sturm_bound_value,
        result.passed,
    ),
    "local_reduction.conductor": lambda args, result: args[0].a_invariants,
}

KERNEL = "frobenius.count_reduced_points"
KERNEL_SPLIT = 10_000  # the kernel's calls and self time are also split at this p


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.info: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name == "steinberg" or name.startswith("steinberg.")]
        for module_name, names in TARGETS.items():
            module = sys.modules[f"steinberg.{module_name}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, info, stack, clock = self.spans, self.info, self._stack, time.perf_counter
        keep = INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (tracer.op, name, start, end, parent)
            if keep is not None:
                info[idx] = keep(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per line: op, span id, parent id, name, start, end (seconds)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([op, idx, parent, name, round(start - t0, 9), round(end - t0, 9)]) + "\n")

    def summarize(self, n_ops: int) -> dict:
        """Per-op means over the traced ops, by metric name: calls and self time of
        every traced function (the kernel's also split at p = KERNEL_SPLIT), and ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for op, name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, (op, name, start, end, parent) in enumerate(spans):
            keys = [name]
            if name == KERNEL:
                keys.append(f"{name}.{'p_lt_1e4' if self.info[idx] < KERNEL_SPLIT else 'p_ge_1e4'}")
            for key in keys:
                calls[key] += 1
                self_s[key] += end - start - child[idx]
        values = {}
        for module, fnames in TARGETS.items():
            for fname in fnames:
                name = f"{module}.{fname}"
                values[f"{name}.calls"] = calls[name] / n_ops
                values[f"{name}.self_ms"] = self_s[name] * 1000 / n_ops
        for split in ("p_lt_1e4", "p_ge_1e4"):
            values[f"{KERNEL}.calls.{split}"] = calls[f"{KERNEL}.{split}"] / n_ops
            values[f"{KERNEL}.self_ms.{split}"] = self_s[f"{KERNEL}.{split}"] * 1000 / n_ops
        values.update(self._ratios(n_ops))
        return values

    def _ancestor(self, idx: int, name: str) -> int:
        parent = self.spans[idx][4]
        while parent >= 0:
            if self.spans[parent][1] == name:
                return parent
            parent = self.spans[parent][4]
        return -1

    def _ratios(self, n_ops: int) -> dict:
        spans, info = self.spans, self.info
        certs = [v for i, v in info.items() if spans[i][1] == "congruence.certify_congruence"]
        primes = primes_up_to(max((p for _, p, _ in certs), default=2))
        needed: dict = defaultdict(int)  # (op, curve) -> primes whose a_p some verdict needed
        computed = conductor_calls = pairs = refuted = 0
        curves_seen: dict = defaultdict(set)
        for idx in sorted(info):
            op, name = spans[idx][0], spans[idx][1]
            if name == "frobenius.ap_table":
                curve, n = info[idx]
                computed += n
                if self._ancestor(idx, "congruence.certify_congruence") < 0:
                    needed[op, curve] = max(needed[op, curve], n)  # the table is the answer
            elif name == "congruence.certify_congruence":
                curves, p_needed, passed = info[idx]
                for curve in curves:
                    needed[op, curve] = max(needed[op, curve], bisect_right(primes, p_needed))
                if self._ancestor(idx, "dataset.scan_level") >= 0:
                    pairs += 1
                    refuted += not passed
            elif name == "local_reduction.conductor":
                conductor_calls += 1
                curves_seen[op].add(info[idx])
        distinct = sum(len(s) for s in curves_seen.values())
        return {
            "frobenius.ap_table.primes": computed / n_ops,
            "frobenius.ap_table.useful_ratio": sum(needed.values()) / computed if computed else 1.0,
            "local_reduction.conductor.per_curve": conductor_calls / distinct if distinct else 0.0,
            "dataset.scan_level.pairs": pairs / n_ops,
            "dataset.scan_level.pairs_refuted": refuted / n_ops,
        }
