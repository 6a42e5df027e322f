"""Span recorder that instruments isomlab from outside the package.

``instrument()`` replaces every public module-level function of each layer
(one layer per isomlab module), at every module namespace that binds it, by
a wrapper that records a span.  ``solve_ivp`` is wrapped where odeengine,
isoflow and fuchsian bind it; its spans are timed as ``<layer>.solver_s``
and count the calls, RHS evaluations (``nfev``) and failures from each
solver result.  Per-RHS callbacks (``coefficient``, ``Lambda``,
``omega_zero_part``) are not wrapped: a span per RHS evaluation would cost
more than the evaluation itself.

A span's self time is its duration minus the time covered by its child
spans.  Spans are kept in memory as tuples and written out once, at the end
of the run, by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "io", "verify", "geometry", "formal", "levelt", "matrixcore",
    "odeengine", "isoflow", "fuchsian",
)
SOLVER_LAYERS = ("odeengine", "isoflow", "fuchsian")
# per-RHS callbacks, counted through the solvers' nfev instead
UNWRAPPED = {"omega_zero_part"}


class Recorder:
    """Spans of a run, and per op the layer times and counters."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, op, name, start_ns, end_ns)
        self.per_op = {}  # op -> {metric name: value}
        self._stack = []  # open spans: [span_id, timer name, start_ns, child_ns]
        self._opened = 0

    def start_op(self, op):
        self.op = op
        self.values = self.per_op[op] = defaultdict(float)
        self._distinct = set()
        self._errors = set()  # (layer, id(exception)) already counted

    def open(self, timer):
        self._stack.append([self._opened, timer, time.perf_counter_ns(), 0])
        self._opened += 1

    def close(self, name):
        """Ends the innermost span; adds its self time to its timer."""
        end = time.perf_counter_ns()
        sid, timer, start, child = self._stack.pop()
        dur = end - start
        self.values[timer] += (dur - child) * 1e-9
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent and parent[0], self.op, name, start, end))
        return dur * 1e-9

    def count(self, name, value=1.0):
        self.values[name] += value

    def maximum(self, name, value):
        self.values[name] = max(self.values[name], float(value))

    def distinct(self, name, key):
        if key not in self._distinct:
            self._distinct.add(key)
            self.values[name] += 1

    def error(self, layer, exc):
        """Counts an exception once for each layer it leaves."""
        mark = (layer, id(exc))
        if mark not in self._errors:
            self._errors.add(mark)
            self.count(f"{layer}.errors")


def _span(rec, layer, qualname, fn, after=None):
    name = f"{layer}.{qualname}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(f"{layer}.calls")
        rec.open(f"{layer}.self_s")
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.error(layer, exc)
            raise
        finally:
            dur = rec.close(name)
        if after is not None:
            after(rec, args, kwargs, result, dur)
        return result

    return wrapper


def _solver(rec, layer, fn):
    name = f"{layer}.solve_ivp"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(f"{layer}.solver_s")
        try:
            sol = fn(*args, **kwargs)
        except BaseException as exc:
            rec.count(f"{layer}.solver_failures")
            rec.error(layer, exc)
            raise
        finally:
            rec.close(name)
        rec.count(f"{layer}.solver_calls")
        rec.count(f"{layer}.rhs_evals", sol.nfev)
        if not sol.success:
            rec.count(f"{layer}.solver_failures")
        return sol

    return wrapper


# ---- counters read from arguments and results at the layer boundaries


def _arguments(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _key(x):
    return None if x is None else np.asarray(x).tobytes()


def _hooks(mods):
    """Counters taken after a call returns, keyed by (layer, function)."""
    sectorial_args = _arguments(mods["odeengine"].actual_solution)
    formal_args = _arguments(mods["formal"].compute_formal_coefficients)

    def sectorial(rec, args, kwargs, result, dur):
        a = sectorial_args(args, kwargs)
        fs = a["fs"]
        series = (
            (a["order"], a["coalesce_tol"]) if fs is None
            else (fs.mode, _key(fs.b), _key(fs.u), tuple(_key(F) for F in fs.F))
        )
        rec.count("odeengine.sectorial_builds")
        rec.distinct("odeengine.sectorial_distinct", (
            _key(a["sys"].u), _key(a["sys"].A), a["r"], a["tau"], a["radius"],
            a["widened"], _key(a["uC"]), series,
        ))

    return {
        ("odeengine", "transport_matrix"):
            lambda rec, *_: rec.count("odeengine.transport_calls"),
        ("odeengine", "actual_solution"): sectorial,
        ("odeengine", "integrate_path"):
            lambda rec, a, k, result, d: rec.maximum(
                "odeengine.wronskian_drift_max", result.wronskian_drift),
        ("odeengine", "stokes_matrix"):
            lambda rec, a, k, result, d: rec.maximum(
                "odeengine.stokes_error_max", result.error_estimate),
        ("formal", "compute_formal_coefficients"):
            lambda rec, a, k, r, d: rec.count("formal.terms", formal_args(a, k)["K"]),
        ("fuchsian", "fuchs_monodromy"):
            lambda rec, *_: rec.count("fuchsian.monodromy_calls"),
        ("fuchsian", "integrate_schlesinger"):
            lambda rec, *_: rec.count("fuchsian.schlesinger_calls"),
        ("isoflow", "UPath.min_gap"):
            lambda rec, a, k, r, dur: rec.count("isoflow.guard_s", dur),
    }


def instrument(rec: Recorder):
    """Wrap every layer's public functions at each binding site; returns a
    function that restores the originals."""
    pkg = importlib.import_module("isomlab")
    mods = {name: importlib.import_module(f"isomlab.{name}") for name in LAYERS}
    hooks = _hooks(mods)
    wrappers = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in UNWRAPPED
            ):
                wrappers[id(obj)] = _span(rec, layer, attr, obj, hooks.get((layer, attr)))
    undo = []

    def replace(target, attr, new):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                replace(mod, attr, wrappers[id(obj)])
    for layer in SOLVER_LAYERS:
        replace(mods[layer], "solve_ivp", _solver(rec, layer, mods[layer].solve_ivp))
    upath = mods["isoflow"].UPath
    replace(upath, "min_gap", _span(rec, "isoflow", "UPath.min_gap", upath.min_gap,
                                    hooks[("isoflow", "UPath.min_gap")]))

    def restore():
        for target, attr, obj in reversed(undo):
            setattr(target, attr, obj)

    return restore
