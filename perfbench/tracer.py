"""Span tracer for the traced benchmark run, built from the benchmark's files.

``Tracer.install`` wraps layer entry points of the library in spans (name,
start, end, parent, contract id) and adds work counters at the same
boundaries; ``uninstall`` restores the originals.  A function is rebound in
every library module that holds it by name (``pricer`` imports
``_c_limit_by_extension``, ``creeping_profile`` and ``psi_roots`` from their
defining modules), so calls through either binding are seen.  A target that
no longer exists is recorded as absent and its metrics read zero.

Wrappers call the original with the original arguments and return its result
unchanged; the MC engine receives a pass-through omega that only counts the
points it is evaluated at (two per path-step), so the pricer never sees a
proxy where it tests ``isinstance(omega, Rational)``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "bench.op"

# (module, attribute, span name); span names are <layer>.<part>
SPANS = (
    ("omega_pricer.cli", "run", "cli.run"),
    ("omega_pricer.pricer", "optimize_boundaries", "pricer.optimize"),
    ("omega_pricer.pricer", "solve_h_ode", "pricer.h_branches"),
    ("omega_pricer.pricer", "HBranch._integrate", "pricer.h_branches"),
    ("omega_pricer.pricer", "smooth_fit_residual", "pricer.diagnostics"),
    ("omega_pricer.pricer", "convexity_margin", "pricer.diagnostics"),
    ("omega_pricer.pricer", "solve_ivp", "pricer.ode"),
    ("omega_pricer.scale", "solve_ivp", "scale.ode"),
    ("omega_pricer.scale", "_c_limit_by_extension", "scale.c_limit"),
    ("omega_pricer.scale", "_march", "scale.march"),
    ("omega_pricer.scale", "creeping_profile", "scale.creeping"),
    ("omega_pricer.levy", "psi_roots", "levy.psi_roots"),
    ("omega_pricer.specfun", "gauss_2f1", "specfun.gauss_2f1"),
    ("omega_pricer.specfun", "gauss_2f1_deriv", "specfun.gauss_2f1"),
    ("omega_pricer.mc", "_engine", "mc.engine"),
    ("omega_pricer.mc", "_engine_antithetic_bs", "mc.engine"),
    ("omega_pricer.mc", "bermudan_dp", "mc.bermudan"),
)

# per-layer metrics reported by the traced run, with units; values are per
# traced pass.  "<span>.s" is inclusive time in the outermost spans of that
# name, "<layer>.self_s" the layer's time minus its child spans, except
# pricer.self_s: the boundary search and value assembly alone, without the
# h-branch, ODE and diagnostics spans of the pricer itself.
PER_LAYER = {
    "scale.march.calls": "count",
    "scale.march.failed": "count",
    "scale.march.nodes": "count",
    "scale.march.s": "s",
    "scale.march.nodes_per_s": "1/s",
    "scale.march.useful_frac": "frac",
    "scale.c_limit.calls": "count",
    "scale.c_limit.s_per_call": "s",
    "scale.creeping.calls": "count",
    "scale.creeping.s": "s",
    "scale.ode.solves": "count",
    "scale.ode.rhs_evals": "count",
    "scale.ode.s": "s",
    "scale.self_s": "s",
    "pricer.calls": "count",
    "pricer.self_s": "s",
    "pricer.h_branches.s": "s",
    "pricer.ode.solves": "count",
    "pricer.ode.rhs_evals": "count",
    "pricer.diagnostics.s": "s",
    "discount.calls": "count",
    "discount.points": "count",
    "levy.psi_roots.calls": "count",
    "levy.psi_roots.s": "s",
    "specfun.gauss_2f1.calls": "count",
    "specfun.gauss_2f1.s": "s",
    "mc.engine.calls": "count",
    "mc.engine.s": "s",
    "mc.path_steps": "count",
    "mc.path_steps_per_s": "1/s",
    "mc.bermudan.dates": "count",
    "mc.bermudan.s_per_date": "s",
    "cli.self_s": "s",
    "trace.root_self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


def _resolve(module_name: str, attr: str):
    """(owner, name, value) for 'f' or 'Class.f' in a loaded module, or None."""
    owner = sys.modules.get(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, contract id]
        self.stack = []
        self.contract = None
        self.counters = defaultdict(float)
        self.absent = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.contract]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def op(self, contract_id: str, fn):
        """Run fn() as the root span of one operation."""
        self.contract = contract_id
        try:
            return self._span_wrapper(ROOT, fn)()
        finally:
            self.contract = None

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, module_name, attr, original, wrapper):
        """Replace original in its module and wherever a library module
        imported it by name; foreign functions (solve_ivp) only in module_name."""
        owner, name, _ = _resolve(module_name, attr)
        self._set(owner, name, wrapper)
        if "." in attr or not getattr(original, "__module__", "").startswith("omega_pricer"):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "omega_pricer" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)

    def _hooks(self, name, fn):
        """Counters taken at a span boundary: (before, after) callables."""
        counters = self.counters
        if name.endswith(".ode"):
            def after(sol):
                counters[f"{name}.solves"] += 1
                counters[f"{name}.rhs_evals"] += sol.nfev
            return None, after
        sig = inspect.signature(fn)
        if name == "mc.engine" and "omega_fn" in sig.parameters:
            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                omega = bound.arguments["omega_fn"]

                def counted(s):
                    counters["mc.omega_points"] += np.size(s)
                    return omega(s)
                bound.arguments["omega_fn"] = counted
                return bound.args, bound.kwargs
            return before, None
        if name == "mc.bermudan" and "n_dates" in sig.parameters:
            def before(args, kwargs):
                counters["mc.bermudan.dates"] += sig.bind(*args, **kwargs).arguments["n_dates"]
                return args, kwargs
            return before, None
        return None, None

    def install(self):
        for module_name, attr, name in SPANS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}:{attr}")
                continue
            fn = found[2]
            before, after = self._hooks(name, fn)
            self._rebind(module_name, attr, fn, self._span_wrapper(name, fn, before, after))
        self._install_march_counters()
        self._install_discount_counters()

    def _install_march_counters(self):
        """Nodes marched, and the share of them in marches that returned;
        a march that raises (GridTooCoarseError) is rerun by its caller."""
        found = _resolve("omega_pricer.scale", "_march_kernel")
        if found is None:
            self.absent.append("omega_pricer.scale:_march_kernel")
            return
        kernel, counters = found[2], self.counters

        def counted_kernel(*args):
            code = kernel(*args)
            if len(args) > 4:  # (..., inhom, ...): one node per entry
                counters["scale.march.nodes"] += abs(code) if code else len(args[4])
            return code
        self._rebind("omega_pricer.scale", "_march_kernel", kernel, counted_kernel)
        march = _resolve("omega_pricer.scale", "_march")
        if march is None:
            return
        traced_march = march[2]

        def counted_march(*args, **kwargs):
            start = counters["scale.march.nodes"]
            try:
                result = traced_march(*args, **kwargs)
            except Exception:
                counters["scale.march.failed"] += 1
                raise
            counters["scale.march.useful_nodes"] += counters["scale.march.nodes"] - start
            return result
        self._rebind("omega_pricer.scale", "_march", traced_march, counted_march)

    def _install_discount_counters(self):
        """Calls and points of every discount-rate evaluation (value or slope)."""
        mod = sys.modules.get("omega_pricer.discount")
        base = getattr(mod, "DiscountFn", None)
        if base is None:
            self.absent.append("omega_pricer.discount:DiscountFn")
            return
        counters = self.counters
        for cls in list(vars(mod).values()):
            if not (isinstance(cls, type) and issubclass(cls, base) and cls is not base):
                continue
            for meth in ("__call__", "deriv"):
                if meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]

                def counted(self_, s, _orig=orig):
                    counters["discount.calls"] += 1
                    counters["discount.points"] += getattr(s, "size", 1)
                    return _orig(self_, s)
                self._set(cls, meth, counted)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def accounting_error(self) -> float:
        """Largest |sum of self times in an operation - its root duration|.

        Every span of an operation descends from its root span, so layer
        self times plus the root remainder must add up to the wall time.
        """
        selfs = self.self_times()
        root_of = []
        sums = defaultdict(float)
        for i, (rec, st) in enumerate(zip(self.spans, selfs)):
            root = i if rec[3] < 0 else root_of[rec[3]]
            root_of.append(root)
            sums[root] += st
        return max((abs(total - (self.spans[r][2] - self.spans[r][1]))
                    for r, total in sums.items()), default=0.0)

    def metrics(self, passes: int, overhead_frac: float) -> dict:
        spans = self.spans
        selfs = self.self_times()
        incl = defaultdict(float)
        calls = defaultdict(int)
        name_self = defaultdict(float)
        layer_self = defaultdict(float)
        for (name, start, end, parent, _), st in zip(spans, selfs):
            calls[name] += 1
            name_self[name] += st
            layer_self[name.split(".")[0]] += st
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
        c = self.counters
        n = max(passes, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "scale.march.calls": calls["scale.march"] / n,
            "scale.march.failed": c["scale.march.failed"] / n,
            "scale.march.nodes": c["scale.march.nodes"] / n,
            "scale.march.s": incl["scale.march"] / n,
            "scale.march.nodes_per_s": ratio(c["scale.march.nodes"], incl["scale.march"]),
            "scale.march.useful_frac": ratio(c["scale.march.useful_nodes"],
                                             c["scale.march.nodes"]),
            "scale.c_limit.calls": calls["scale.c_limit"] / n,
            "scale.c_limit.s_per_call": ratio(incl["scale.c_limit"], calls["scale.c_limit"]),
            "scale.creeping.calls": calls["scale.creeping"] / n,
            "scale.creeping.s": incl["scale.creeping"] / n,
            "scale.ode.solves": c["scale.ode.solves"] / n,
            "scale.ode.rhs_evals": c["scale.ode.rhs_evals"] / n,
            "scale.ode.s": incl["scale.ode"] / n,
            "scale.self_s": layer_self["scale"] / n,
            "pricer.calls": calls["pricer.optimize"] / n,
            "pricer.self_s": name_self["pricer.optimize"] / n,
            "pricer.h_branches.s": incl["pricer.h_branches"] / n,
            "pricer.ode.solves": c["pricer.ode.solves"] / n,
            "pricer.ode.rhs_evals": c["pricer.ode.rhs_evals"] / n,
            "pricer.diagnostics.s": incl["pricer.diagnostics"] / n,
            "discount.calls": c["discount.calls"] / n,
            "discount.points": c["discount.points"] / n,
            "levy.psi_roots.calls": calls["levy.psi_roots"] / n,
            "levy.psi_roots.s": incl["levy.psi_roots"] / n,
            "specfun.gauss_2f1.calls": calls["specfun.gauss_2f1"] / n,
            "specfun.gauss_2f1.s": incl["specfun.gauss_2f1"] / n,
            "mc.engine.calls": calls["mc.engine"] / n,
            "mc.engine.s": incl["mc.engine"] / n,
            "mc.path_steps": c["mc.omega_points"] / 2.0 / n,
            "mc.path_steps_per_s": ratio(c["mc.omega_points"] / 2.0, incl["mc.engine"]),
            "mc.bermudan.dates": c["mc.bermudan.dates"] / n,
            "mc.bermudan.s_per_date": ratio(incl["mc.bermudan"], c["mc.bermudan.dates"]),
            "cli.self_s": layer_self["cli"] / n,
            "trace.root_self_s": layer_self["bench"] / n,
            "trace.overhead_frac": overhead_frac,
            "trace.spans": len(spans) / n,
        }
        if set(m) != set(PER_LAYER):
            raise RuntimeError("per-layer metric names out of step with PER_LAYER")
        return m
