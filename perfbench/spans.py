"""Span tracing installed from outside the program, and the per-layer metrics.

`Tracer.install` replaces each traced public function of pythmod by a
wrapper in every pythmod module namespace that binds it (methods are
replaced on their class), so calls made inside the package are traced as
well as calls made by the benchmark.  Spans stay in memory (name, start,
end, parent, operation) and are written out by `Tracer.dump`.  A span's
self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from reference import excluded_classes

# Declared per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.record_bytes", "bytes"),
    ("counting.count_smoothed.calls", "count"),
    ("counting.count_smoothed.self_s", "s"),
    ("counting.box_pairs", "count"),
    ("counting.box_pairs_per_s", "1/s"),
    ("counting.count_box_exact.self_s", "s"),
    ("counting.count_equation_box.self_s", "s"),
    ("counting.count_pythagorean.self_s", "s"),
    ("counting.dual_triple_count.self_s", "s"),
    ("counting.bytes_computed", "bytes"),
    ("weights.value.calls", "count"),
    ("weights.value.points", "count"),
    ("weights.value.self_s", "s"),
    ("weights.fourier.calls", "count"),
    ("weights.fourier.self_s", "s"),
    ("circle.enumerate_admissible_t.calls", "count"),
    ("circle.enumerate_admissible_t.params", "count"),
    ("circle.enumerate_admissible_t.self_s", "s"),
    ("circle.hensel_lift_solution.calls", "count"),
    ("circle.hensel_lift_solution.self_s", "s"),
    ("expsums.bruteforce.calls", "count"),
    ("expsums.bruteforce.terms", "count"),
    ("expsums.bruteforce.self_s", "s"),
    ("expsums.bruteforce.terms_per_s", "1/s"),
    ("expsums.closed.calls", "count"),
    ("expsums.closed.self_s", "s"),
    ("expsums.closed.fallbacks", "count"),
    ("expsums.closed.useful_ratio", "ratio"),
    ("padic.sqrt_mod.calls", "count"),
    ("padic.sqrt_mod.self_s", "s"),
    ("padic.inv_mod.calls", "count"),
    ("padic.inv_mod.self_s", "s"),
    ("padic.jacobi_symbol.calls", "count"),
    ("padic.jacobi_symbol.self_s", "s"),
    ("padic.eval_rational_mod.calls", "count"),
    ("padic.eval_rational_mod.self_s", "s"),
    ("padic.modulus_init.calls", "count"),
    ("padic.modulus_init.self_s", "s"),
    ("tracing_overhead_frac", "ratio"),
]


def _units_in_box(p: int, C: int) -> int:
    """Integers x with |x| <= C and p not dividing x."""
    return 2 * C + 1 - (2 * (C // p) + 1)


def _mode(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("mode", "bruteforce")


# Hooks turn a traced call's inputs and outcome into counters.  The array
# byte estimates are computed from the box and q, not measured.

def _hook_count_smoothed(tr, args, kwargs, result, exc):
    cfg = args[0]
    p, q = cfg.modulus.p, cfg.modulus.q
    units = _units_in_box(p, int(cfg.cutoff * cfg.N))
    tr.counters["counting.box_pairs"] += (units // 2) * units
    tr.peak("counting.bytes_computed", 8 * (4 * q + 5 * units))


def _hook_count_box_exact(tr, args, kwargs, result, exc):
    m, N = args[0], args[1]
    tr.peak("counting.bytes_computed", 8 * (4 * m.q + 4 * _units_in_box(m.p, N)))


def _hook_count_pythagorean(tr, args, kwargs, result, exc):
    tr.peak("counting.bytes_computed", 4 * (args[0] + 1))


def _hook_dual(tr, args, kwargs, result, exc):
    L, modulus = args[0], args[1]
    if modulus <= 2 * L * L:
        tr.peak("counting.bytes_computed", 8 * (modulus + 4 * (2 * L + 1)))


def _hook_value(tr, args, kwargs, result, exc):
    tr.counters["weights.value.points"] += np.size(args[1])


def _hook_enumerate(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counters["circle.enumerate_admissible_t.params"] += len(result)


def _hook_circle_sum(tr, args, kwargs, result, exc):
    if _mode(args, kwargs) == "bruteforce":
        m = args[0].modulus
        tr.counters["expsums.bruteforce.terms"] += m.q // m.p * (m.p - excluded_classes(m.p))
    else:
        _hook_closed(tr, args, kwargs, result, exc)


def _hook_class_brute(tr, args, kwargs, result, exc):
    alpha, m = args[1], args[2]
    tr.counters["expsums.bruteforce.terms"] += len(range(alpha % m.p, m.q, m.p))


def _hook_closed(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counters["expsums.closed.returned"] += 1
    elif type(exc).__name__ == "HypothesisViolated":
        tr.counters["expsums.closed.fallbacks"] += 1


def _circle_sum_name(tr, args, kwargs):
    return "expsums.bruteforce" if _mode(args, kwargs) == "bruteforce" else "expsums.closed"


def _class_closed_name(tr, args, kwargs):
    # Inside a closed circle sum the class sums are part of that evaluation.
    return None if tr.current() == "expsums.closed" else "expsums.closed"


def _targets(pm):
    """(owner, attribute, span name or name function, hook) for each traced name."""
    return [
        (pm.cli, "main", "cli.main", None),
        (pm.counting, "count_smoothed", "counting.count_smoothed", _hook_count_smoothed),
        (pm.counting, "count_box_exact", "counting.count_box_exact", _hook_count_box_exact),
        (pm.counting, "count_equation_box", "counting.count_equation_box", None),
        (pm.counting, "count_pythagorean", "counting.count_pythagorean", _hook_count_pythagorean),
        (pm.counting, "dual_triple_count", "counting.dual_triple_count", _hook_dual),
        (pm.WeightSpec, "value", "weights.value", _hook_value),
        (pm.WeightSpec, "fourier", "weights.fourier", None),
        (pm.circle, "enumerate_admissible_t", "circle.enumerate_admissible_t", _hook_enumerate),
        (pm.circle, "hensel_lift_solution", "circle.hensel_lift_solution", None),
        (pm.expsums, "circle_exponential_sum", _circle_sum_name, _hook_circle_sum),
        (pm.expsums, "residue_class_sum", "expsums.bruteforce", _hook_class_brute),
        (pm.expsums, "residue_class_sum_closed", _class_closed_name, _hook_closed),
        (pm.padic, "sqrt_mod", "padic.sqrt_mod", None),
        (pm.padic, "inv_mod", "padic.inv_mod", None),
        (pm.padic, "jacobi_symbol", "padic.jacobi_symbol", None),
        (pm.padic, "eval_rational_mod", "padic.eval_rational_mod", None),
        (pm.PrimePowerModulus, "__post_init__", "padic.modulus_init", None),
    ]


class Tracer:
    """In-memory spans with per-name call counts, total and self time."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, name, seconds covered by children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.op_index = -1
        self._restore = []

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def peak(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_index)
        self.span_end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.span_start.append(perf_counter())

    def end(self) -> None:
        t = perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = name(tracer, args, kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end()
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            tracer.end()
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, pm) -> None:
        """Wrap every traced name wherever a pythmod namespace binds it."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "pythmod" or key.startswith("pythmod.")]
        for owner, attr, name, hook in _targets(pm):
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def metrics(self, overhead_frac: float) -> dict:
        """Every declared per-layer metric; a layer the workload never
        reaches reads 0, and so does a ratio with a zero base."""
        out = {}
        for span in ("cli.main", "counting.count_smoothed", "weights.value",
                     "weights.fourier", "circle.enumerate_admissible_t",
                     "circle.hensel_lift_solution", "expsums.bruteforce",
                     "expsums.closed", "padic.sqrt_mod", "padic.inv_mod",
                     "padic.jacobi_symbol", "padic.eval_rational_mod",
                     "padic.modulus_init"):
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for span in ("counting.count_box_exact", "counting.count_equation_box",
                     "counting.count_pythagorean", "counting.dual_triple_count"):
            out[f"{span}.self_s"] = self.self_s[span]
        for key in ("cli.record_bytes", "counting.box_pairs", "counting.bytes_computed",
                    "weights.value.points", "circle.enumerate_admissible_t.params",
                    "expsums.bruteforce.terms", "expsums.closed.fallbacks"):
            out[key] = self.counters[key]
        smoothed_s = self.total_s["counting.count_smoothed"]
        brute_s = self.total_s["expsums.bruteforce"]
        closed_calls = self.calls["expsums.closed"]
        out["counting.box_pairs_per_s"] = out["counting.box_pairs"] / smoothed_s if smoothed_s else 0.0
        out["expsums.bruteforce.terms_per_s"] = out["expsums.bruteforce.terms"] / brute_s if brute_s else 0.0
        out["expsums.closed.useful_ratio"] = (
            self.counters["expsums.closed.returned"] / closed_calls if closed_calls else 0.0
        )
        out["tracing_overhead_frac"] = overhead_frac
        return {name: int(out[name]) if unit in ("count", "bytes") else out[name]
                for name, unit in PER_LAYER}
