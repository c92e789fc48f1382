"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer`` wraps the public functions at each layer boundary of
``adinvar`` (one module is one layer).  A wrapped call records a span --
name, start, end and the span that caused it -- in memory, and adds to
the function's call count, inclusive time and self time (inclusive time
minus the time of wrapped children).  Inner helpers that run tens of
thousands of times per pass, such as ``BilinearForm.apply`` or
``mat_vec``, are deliberately not wrapped.

``FractionCounter`` counts the exact kernel's operations: calls of the
``_add``, ``_sub``, ``_mul`` and ``_div`` methods of ``fractions.Fraction``
that the arithmetic operators dispatch to.
"""

import operator
import sys
import time
from fractions import Fraction

# Layer -> wrapped names; "Class.method" wraps a method on its class.
LAYERS = {
    "linalg": ("rref", "nullspace", "solve", "inverse", "mat_mul"),
    "core": ("ad_invariant", "check_jacobi", "lower_central_series",
             "derived_series", "center"),
    "extension": ("Representation.validate", "double_extend", "build_gd",
                  "reductive_split", "kostant_form"),
    "geometry": ("levi_civita", "levi_civita_gd", "curvature", "curvature_gd",
                 "ricci_operator", "sectional"),
    "homstructure": ("build_hom_structure", "verify_as"),
    "derivations": ("so_aut", "derivation_algebra", "skew_derivations", "profile"),
    "series": ("predict_nilpotent_step", "predict_solvable_step",
               "heisenberg_recognizer"),
    "corpus": ("corpus_build", "CorpusEntry.checks"),
    "io": ("load_builder_file", "load_algebra_file"),
    "cli": ("cmd_check", "cmd_gd", "cmd_geometry", "cmd_verify_as",
            "cmd_derivations", "cmd_series", "cmd_corpus"),
}


# The functions that every workload calls.  Only these report their times
# as metrics: on a workload that never calls a function its time is a
# constant zero, not a measurement.  Every function reports its calls.
TIMED = ("linalg.rref", "linalg.nullspace", "linalg.inverse", "linalg.mat_mul",
         "core.ad_invariant", "core.check_jacobi", "extension.validate",
         "extension.double_extend", "extension.build_gd", "geometry.levi_civita",
         "geometry.levi_civita_gd", "geometry.curvature", "geometry.curvature_gd",
         "homstructure.build_hom_structure", "homstructure.verify_as",
         "derivations.so_aut")


def metric_names():
    """``layer.function`` for every wrapped function, in a fixed order."""
    return [f"{layer}.{name.rsplit('.', 1)[-1]}"
            for layer, names in LAYERS.items() for name in names]


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls, self.s, self.self_s, self.depth = 0, 0.0, 0.0, 0


class Tracer:
    """Install with ``with Tracer(package) as tracer:``; the originals are
    restored on exit."""

    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats = {name: Stat() for name in metric_names()}
        self.spans = []      # (id, parent id, name, start, end)
        self._stack = []     # [span id, time of wrapped children] per open call
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, metric, fn):
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            stat = self.stats[metric]
            span = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)
            stack.append([span, 0.0])
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                _, children = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += took - children
                if stat.depth == 0:      # recursion is counted once
                    stat.s += took
                if stack:
                    stack[-1][1] += took
                self.spans[span] = (span, parent, metric, start, end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package.__name__ or
                                         name.startswith(self.package.__name__ + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{self.package.__name__}.{layer}"]
            for name in names:
                metric = f"{layer}.{name.rsplit('.', 1)[-1]}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(metric, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(metric, original)
                # Every module that imported the function by name holds its
                # own binding; patch each one, or calls through it are missed.
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        return False

    def calls(self):
        return {name: st.calls for name, st in self.stats.items()}


class FractionCounter:
    """Counts Fraction._add/_sub/_mul/_div calls made by the operators.

    The operator methods close over the original implementations, so the
    operators are rebuilt from counting versions with the class's own
    ``_operator_fallbacks``; the originals are restored on exit."""

    OPS = (("add", "_add", operator.add), ("sub", "_sub", operator.sub),
           ("mul", "_mul", operator.mul), ("truediv", "_div", operator.truediv))

    def __init__(self):
        self.count = 0
        self._saved = {}

    def _counting(self, fn):
        def counted(a, b):
            self.count += 1
            return fn(a, b)
        return counted

    def __enter__(self):
        for op, impl, fallback in self.OPS:
            fwd, rev = f"__{op}__", f"__r{op}__"
            self._saved[fwd] = Fraction.__dict__[fwd]
            self._saved[rev] = Fraction.__dict__[rev]
            new_fwd, new_rev = Fraction._operator_fallbacks(
                self._counting(getattr(Fraction, impl)), fallback)
            setattr(Fraction, fwd, new_fwd)
            setattr(Fraction, rev, new_rev)
        return self

    def __exit__(self, *exc):
        for attr, original in self._saved.items():
            setattr(Fraction, attr, original)
        self._saved = {}
        return False
