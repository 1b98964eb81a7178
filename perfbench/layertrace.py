"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install()`` replaces every public function of the seven layer
modules (and the Polynomial methods of ``exact``) with a timing wrapper, in
every namespace that binds it: ``forms.determinant`` and
``disc.determinant`` are the same function, so both bindings are wrapped.
``uninstall()`` puts every original back.  Nothing under ``src/`` changes.

A span is (name, request id, parent span, start, end).  Spans are folded into
per-name totals as they close, so memory stays flat: a span's self time is
its duration minus the durations of the child spans it directly encloses.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("cli", "exact", "disc", "roots", "forms", "construct", "ratfun")

# Bindings the metrics rely on; a missing one makes the traced run fail.
REQUIRED_BINDINGS = [
    ("forms", "determinant"), ("ratfun", "rational_roots"),
    ("ratfun", "solve_linear_system"), ("construct", "rational_roots"),
    ("roots", "discriminant_resultant"), ("forms", "solve_cubic_cardano"),
    ("disc", "determinant"), ("disc", "power_sums"), ("exact", "poly_gcd"),
    ("exact", "rational_roots"), ("forms", "solve_linear_system"),
    ("forms", "char_poly"), ("forms", "inertia"), ("forms", "orthogonal_diagonalize"),
    ("forms", "rational_nullspace"), ("roots", "solve_cubic_cardano"),
    ("ratfun", "adaptive_simpson"), ("ratfun", "factor_real"),
    ("ratfun", "partial_fractions"), ("cli", "run"),
]

# Polynomial methods, grouped into span names of the exact layer.
POLY_METHODS = {
    "__init__": "exact.poly_new",
    "__call__": "exact.poly_eval",
    **{m: "exact.poly_arith" for m in (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__pow__", "__divmod__", "__floordiv__", "__mod__", "taylor_shift")},
    **{m: "exact.poly_other" for m in ("derivative", "monic", "to_text", "__str__")},
}

REDUNDANCY_TRACKED = ("forms.char_poly", "forms.inertia", "forms.orthogonal_diagonalize")


def _entry_bits(m):
    rows = m.rows if hasattr(m, "rows") else m
    bits = 0
    for row in rows:
        for v in row:
            num = getattr(v, "numerator", v)
            den = getattr(v, "denominator", 1)
            if isinstance(num, int):
                bits = max(bits, num.bit_length(), den.bit_length())
    return bits


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats = {}  # span name -> [calls, self seconds]
        self.binding_calls = {}  # "module.name" of the binding called -> calls
        self.counters = {"determinant.order_max": 0, "determinant.entry_bits_max": 0,
                         "solve_linear_system.order_max": 0, "rational_roots.evals": 0,
                         "rational_roots.hits": 0, "adaptive_simpson.evals": 0}
        self.redundant = {name: 0 for name in REDUNDANCY_TRACKED}
        self.stack = []
        self.request_id = None
        self.seen_args = {}
        self.in_rational_roots = 0
        self._patched = []

    def begin_request(self, request_id):
        self.request_id = request_id
        self.seen_args = {}

    # -- wrapping -------------------------------------------------------------------

    def _targets(self):
        """(span name, original function) for every traced public function."""
        out = []
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((f"{layer}.{name}", obj))
        return out

    def install(self):
        namespaces = {"klasika": self.package, **self.modules}
        for key, fn in self._targets():
            for ns_name, ns in namespaces.items():
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, attr, self._wrap(key, fn, f"{ns_name}.{attr}"))
        poly = self.modules["exact"].Polynomial
        for method, key in POLY_METHODS.items():
            fn = poly.__dict__[method]
            self._patch(poly, method, self._wrap(key, fn, f"exact.Polynomial.{method}"))
        wrapped = {(ns, attr) for ns, attr, _ in self._patched}
        missing = [f"{m}.{n}" for m, n in REQUIRED_BINDINGS if (self.modules[m], n) not in wrapped]
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced names missing from klasika: {', '.join(missing)}")

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def _patch(self, ns, attr, wrapper):
        self._patched.append((ns, attr, getattr(ns, attr) if isinstance(ns, type) else vars(ns)[attr]))
        setattr(ns, attr, wrapper)

    def _wrap(self, key, fn, binding):
        stats = self.stats.setdefault(key, [0, 0.0])
        self.binding_calls.setdefault(binding, 0)
        before = getattr(self, "_before_" + key.split(".", 1)[1], None)
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [key, tracer.request_id, stack[-1] if stack else None, clock(), 0.0]
            stack.append(frame)
            tracer.binding_calls[binding] += 1
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
                if key == "exact.rational_roots":
                    tracer.counters["rational_roots.hits"] += len(result)
                return result
            finally:
                if key == "exact.rational_roots":
                    tracer.in_rational_roots -= 1
                duration = clock() - frame[3]
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[4]
                if stack:
                    stack[-1][4] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the boundary, keyed by span name ---------------------------

    def _before_determinant(self, args):
        m = args[0]
        c = self.counters
        c["determinant.order_max"] = max(c["determinant.order_max"], m.n if hasattr(m, "n") else len(m))
        c["determinant.entry_bits_max"] = max(c["determinant.entry_bits_max"], _entry_bits(m))
        return args

    def _before_solve_linear_system(self, args):
        c = self.counters
        c["solve_linear_system.order_max"] = max(c["solve_linear_system.order_max"], len(args[0]))
        return args

    def _before_rational_roots(self, args):
        self.in_rational_roots += 1
        return args

    def _before_poly_eval(self, args):
        if self.in_rational_roots and not isinstance(args[1], (float, complex)):
            self.counters["rational_roots.evals"] += 1
        return args

    def _before_adaptive_simpson(self, args):
        fn = args[0]
        counters = self.counters

        def counted(t):
            counters["adaptive_simpson.evals"] += 1
            return fn(t)

        return (counted, *args[1:])

    def _redundant(self, key, args):
        seen = self.seen_args.setdefault(key, set())
        rows = args[0].rows
        if rows in seen:
            self.redundant[key] += 1
        seen.add(rows)
        return args

    def _before_char_poly(self, args):
        return self._redundant("forms.char_poly", args)

    def _before_inertia(self, args):
        return self._redundant("forms.inertia", args)

    def _before_orthogonal_diagonalize(self, args):
        return self._redundant("forms.orthogonal_diagonalize", args)

    # -- metrics -----------------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics for one pass over the workload (totals / passes)."""
        s = {k: v for k, v in self.stats.items()}

        def calls(key):
            return s.get(key, [0, 0.0])[0] / passes

        def self_s(key):
            return s.get(key, [0, 0.0])[1] / passes

        out = {}
        for layer in LAYERS:
            keys = [k for k in s if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(s[k][0] for k in keys) / passes
            out[f"{layer}.self_s"] = sum(s[k][1] for k in keys) / passes
        c = self.counters
        out.update({
            "disc.determinant.calls": calls("disc.determinant"),
            "disc.determinant.self_s": self_s("disc.determinant"),
            "disc.determinant.order_max": c["determinant.order_max"],
            "disc.determinant.entry_bits_max": c["determinant.entry_bits_max"],
            "disc.power_sums.self_s": self_s("disc.power_sums"),
            "exact.poly_gcd.calls": calls("exact.poly_gcd"),
            "exact.poly_gcd.self_s": self_s("exact.poly_gcd"),
            "exact.rational_roots.calls": calls("exact.rational_roots"),
            "exact.rational_roots.self_s": self_s("exact.rational_roots"),
            "exact.rational_roots.evals": c["rational_roots.evals"] / passes,
            "exact.rational_roots.hit_ratio": c["rational_roots.hits"] / max(c["rational_roots.evals"], 1),
            "exact.poly_new.calls": calls("exact.poly_new"),
            "exact.poly_arith.self_s": self_s("exact.poly_arith"),
            "forms.solve_linear_system.self_s": self_s("forms.solve_linear_system"),
            "forms.solve_linear_system.order_max": c["solve_linear_system.order_max"],
            "forms.rational_nullspace.self_s": self_s("forms.rational_nullspace"),
            "roots.solve_cubic_cardano.self_s": self_s("roots.solve_cubic_cardano"),
            "roots.discriminant_resultant.calls": self.binding_calls.get("roots.discriminant_resultant", 0) / passes,
            "ratfun.adaptive_simpson.evals": c["adaptive_simpson.evals"] / passes,
            "ratfun.adaptive_simpson.self_s": self_s("ratfun.adaptive_simpson"),
            "ratfun.factor_real.self_s": self_s("ratfun.factor_real"),
            "ratfun.partial_fractions.self_s": self_s("ratfun.partial_fractions"),
        })
        for key in REDUNDANCY_TRACKED:
            n = s.get(key, [0, 0.0])[0]
            out[f"{key}.calls"] = n / passes
            out[f"{key}.redundant_frac"] = self.redundant[key] / n if n else 0.0
        return out
