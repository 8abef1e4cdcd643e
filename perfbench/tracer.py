"""Outside-in tracer for quantbench: wraps the public functions of each module
from outside the package, so no code under ``src/`` changes.

Every public module-level function and every public method (plus the
arithmetic dunders) of the classes a layer module defines is replaced by a
wrapper, in every namespace that binds it: ``runner.holomorphic_solve``,
``quantbench.curvature`` and the reflected aliases such as
``PolyExpr.__rmul__`` all receive the same wrapper as the original name.
``ExactScalar`` mul/add/inverse (with ``__rmul__``/``__radd__``) are counted,
not timed, to keep overhead low; their time lands in the caller's layer.

Each wrapped call pushes a frame.  Self time per layer is the frame's
duration minus the time of its child frames.  A span is recorded (and kept in
memory until ``write_spans``) when a call crosses into another layer; its
parent is the nearest enclosing recorded span, and it carries the id of the
scenario run it belongs to.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Modules traced as layers, bottom up.  `scalars` is counted only.
LAYERS = ("exprs", "linalg", "geometry", "liealg", "hamiltonian", "cech",
          "bundles", "quantize", "reduce", "gauge", "catalog", "runner",
          "reports")
ARITHMETIC_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__"})

POLY_MUL = "exprs.PolyExpr.__mul__"
POLY_GCD = "exprs.poly_gcd"
SIMPLIFY = "exprs.RationalExpr.simplify"
CURVATURE = "bundles.curvature"
REPORT_ADD = "reports.Report.add"


class FnStats:
    """Calls of one wrapped function; `outer_*` excludes recursive calls."""

    __slots__ = ("calls", "outer_calls", "outer_s", "depth")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0
        self.outer_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.stack = []          # frames: [layer, child_s, span_id, name, reached_gcd]
        self.stats = {}          # wrapped name -> FnStats
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.scalar_ops = {"mul": 0, "add": 0, "inverse": 0}
        self.poly_terms_out = 0
        self.poly_max_terms = 0
        self.simplify_reached_gcd = 0
        self.curvature_repeats = 0
        self._bundles_seen = {}  # id -> bundle, kept alive so ids stay unique
        self.check_seconds = {}  # check id -> summed CheckRecord.seconds
        self.checks = 0
        self.checks_failed = 0
        self.spans = []          # (span_id, parent_span_id, trace_id, name, t0, t1)
        self.trace_id = 0
        self._next_span = 1

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap every traced callable and rebind it in every namespace."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package.__name__ or
                                         name.startswith(self.package.__name__ + "."))]
        replace = {}
        scalars = sys.modules[self.package.__name__ + ".scalars"]
        cls = scalars.ExactScalar
        for attr, key in (("__mul__", "mul"), ("__add__", "add"), ("inverse", "inverse")):
            replace[id(vars(cls)[attr])] = self._counted(vars(cls)[attr], key)
        self._rebind_class(cls, replace)
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, replace)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, name, wrapper)

    def _wrap_class(self, cls, layer, replace):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC_DUNDERS:
                continue
            func = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
            if not inspect.isfunction(func):
                continue
            if id(func) not in replace:
                replace[id(func)] = self._wrap(func, f"{layer}.{cls.__name__}.{attr}", layer)
        self._rebind_class(cls, replace)

    @staticmethod
    def _rebind_class(cls, replace):
        for attr, member in list(vars(cls).items()):
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            func = member.__func__ if kind else member
            wrapper = replace.get(id(func))
            if wrapper is not None and wrapper.__wrapped__ is func:
                setattr(cls, attr, kind(wrapper) if kind else wrapper)

    # -- wrappers ---------------------------------------------------------------
    def _counted(self, fn, key):
        ops = self.scalar_ops

        @functools.wraps(fn)
        def counted(*args):
            ops[key] += 1
            return fn(*args)
        return counted

    def _wrap(self, fn, name, layer):
        stats = self.stats[name] = FnStats()
        stack, clock, layer_self, spans = self.stack, self.clock, self.layer_self, self.spans
        on_enter = {POLY_GCD: self._enter_gcd, CURVATURE: self._enter_curvature,
                    REPORT_ADD: self._enter_report_add}.get(name)
        on_exit = {POLY_MUL: self._exit_poly_mul}.get(name)
        is_simplify = name == SIMPLIFY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                span_id = self._next_span
                self._next_span += 1
            else:
                span_id = 0
            frame = [layer, 0.0, span_id or parent[2], name, False]
            if on_enter is not None:
                on_enter(parent, args)
            stats.calls += 1
            stats.depth += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats.depth -= 1
                duration = t1 - t0
                layer_self[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if not stats.depth:
                    stats.outer_calls += 1
                    stats.outer_s += duration
                if span_id:
                    spans.append((span_id, parent[2] if parent else 0,
                                  self.trace_id, name, t0, t1))
                if is_simplify and frame[4]:
                    self.simplify_reached_gcd += 1
            if on_exit is not None:
                on_exit(result)
            return result
        return traced

    def _enter_gcd(self, parent, args):
        if parent is not None and parent[3] == SIMPLIFY:
            parent[4] = True

    def _enter_curvature(self, parent, args):
        bundle = args[0]
        if id(bundle) in self._bundles_seen:
            self.curvature_repeats += 1
        else:
            self._bundles_seen[id(bundle)] = bundle

    def _enter_report_add(self, parent, args):
        # Records are counted as the runner adds them, so a run that raises
        # later still contributes the checks it finished.
        record = args[1]
        self.checks += 1
        self.checks_failed += record.status == "fail"
        self.check_seconds[record.check_id] = \
            self.check_seconds.get(record.check_id, 0.0) + record.seconds

    def _exit_poly_mul(self, result):
        terms = len(result.terms)
        self.poly_terms_out += terms
        if terms > self.poly_max_terms:
            self.poly_max_terms = terms

    # -- results -------------------------------------------------------------------
    def _stat(self, name):
        if name not in self.stats:
            raise KeyError(f"{name} was not wrapped; update the tracer's metric table")
        return self.stats[name]

    def metrics(self):
        """Per-layer counters and seconds, keyed by metric name."""
        out = {f"scalars.{key}.count": n for key, n in self.scalar_ops.items()}
        mul, gcd, simp = self._stat(POLY_MUL), self._stat(POLY_GCD), self._stat(SIMPLIFY)
        curv = self._stat(CURVATURE)
        out.update({
            "exprs.poly_mul.count": mul.calls,
            "exprs.poly_mul.s": mul.outer_s,
            "exprs.poly_mul.terms_out": self.poly_terms_out,
            "exprs.poly_mul.max_terms": self.poly_max_terms,
            "exprs.poly_gcd.count": gcd.outer_calls,
            "exprs.poly_gcd.s": gcd.outer_s,
            "exprs.simplify.count": simp.calls,
            "exprs.simplify.gcd_ratio": self.simplify_reached_gcd / simp.calls
            if simp.calls else 0.0,
            "linalg.rref.count": self._stat("linalg.rref").calls,
            "bundles.curvature.count": curv.calls,
            "bundles.curvature.s": curv.outer_s,
            "bundles.curvature.repeat_ratio": self.curvature_repeats / curv.calls
            if curv.calls else 0.0,
            "bundles.kostant_operator.count": self._stat("bundles.kostant_operator").calls,
            "quantize.holomorphic_solve.s": self._stat("quantize.holomorphic_solve").outer_s,
            "quantize.induced_representation.s":
                self._stat("quantize.induced_representation").outer_s,
            "quantize.inner_product.count": self._stat("quantize.inner_product").calls,
            "catalog.build_scenario.s": self._stat("catalog.build_scenario").outer_s,
            "runner.checks.count": self.checks,
            "runner.checks.failed": self.checks_failed,
        })
        for fn in ("glue_check", "pullback"):
            st = self._stat(f"geometry.{fn}")
            out[f"geometry.{fn}.count"] = st.calls
            out[f"geometry.{fn}.s"] = st.outer_s
        for layer, seconds in self.layer_self.items():
            out[f"{layer}.self_s"] = seconds
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON: one row per span."""
        with open(path, "w") as handle:
            json.dump({"columns": ["id", "parent", "trace", "name", "t0", "t1"],
                       "spans": self.spans}, handle)
