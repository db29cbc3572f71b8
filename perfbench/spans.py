"""Tracing from outside the program: wrap the public functions of each
meanwidth module and scipy's adaptive quadrature, record spans and counts.

Every module that bound a wrapped function through ``from .x import y`` gets
the wrapper too.  A traced op index runs in two passes.  The timing pass
records a span for every public function except ``special``'s and times each
``scipy.integrate.quad`` call; the per-layer times come from it.  The
counting pass wraps only what runs millions of times per op from quadrature
integrands: ``special``'s functions (calls and time, per thread) and the
integrands themselves (evaluations).  A per-call wrapper costs about as much
as the call it wraps, so keeping these out of the timing pass keeps its
spans close to the untraced times.  Spans carry the op id and the parent
span; a span opened on a worker thread with no open span of its own takes
the main thread's innermost open span as its parent (the main thread is
blocked in that call while the pool runs).  Everything stays in memory until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

# The layers, in the order the per-layer table lists them.
LAYERS = ("cli", "special", "extremes", "polytopes", "sampling", "limits", "conjecture")
# Only the CLI's entry point and its writer: the cmd_* handlers are part of
# the CLI's own work, which cli.main.self_s measures.
CLI_FUNCTIONS = ("main", "emit")
COUNTED_LAYER = "special"
PACKAGE = "meanwidth"


def _extra_width_samples(bound):
    return {"n": bound.arguments["p"].n, "count": bound.arguments["count"]}


def _extra_estimate_moments(bound):
    return {"threads": bound.arguments["threads"]}


def _extra_limit_cdf(bound):
    return {"points": int(np.size(bound.arguments["x"]))}


def _extra_optimize(bound):
    args = bound.arguments
    return {"steps": args["restarts"] * args["iterations"], "crn_bytes": 8 * args["cfg"].samples * args["n"]}


# Measured arguments recorded on a span, by span name.
EXTRA = {
    "sampling.width_samples": _extra_width_samples,
    "sampling.estimate_moments": _extra_estimate_moments,
    "limits.limit_cdf": _extra_limit_cdf,
    "conjecture.optimize_configuration": _extra_optimize,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._thread_counters: list[dict] = []
        self._lock = threading.Lock()

    # -- per-thread state -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _counters(self) -> dict:
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = defaultdict(float)
            with self._lock:
                self._thread_counters.append(counts)
            return counts

    def counters(self) -> dict[str, float]:
        """Counter totals over every traced op, merged over threads."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for counts in self._thread_counters:
                for name, value in counts.items():
                    out[name] += value
        return dict(out)

    # -- wrappers ---------------------------------------------------------
    def span_wrapper(self, name: str, fn):
        extra = EXTRA.get(name)
        sig = inspect.signature(fn) if extra else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = {"op": tracer.op, "id": sid, "parent": parent, "name": name,
                        "tid": threading.get_ident(), "t0": t0, "t1": t1}
                if extra:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(extra(bound))
                tracer.spans.append(span)

        return wrapper

    def count_wrapper(self, name: str, fn):
        local, new_counters = self._local, self._counters
        calls_key, s_key = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                try:
                    counts = local.counts
                except AttributeError:
                    counts = new_counters()
                counts[calls_key] += 1
                counts[s_key] += dt

        return wrapper

    def quad_timer(self, quad):
        """scipy.integrate.quad with calls, time in outermost calls,
        subdivision-limit hits and convergence counted (timing pass).

        It always asks scipy for full_output to read convergence, and gives
        callers that did not ask for it the plain (value, error) pair and
        scipy's IntegrationWarning, as scipy would.
        """
        tracer = self
        from scipy.integrate import IntegrationWarning

        @functools.wraps(quad)
        def traced_quad(func, a, b, args=(), full_output=0, **kwargs):
            depth = getattr(tracer._local, "quad_depth", 0)
            tracer._local.quad_depth = depth + 1
            t0 = perf_counter()
            try:
                res = quad(func, a, b, args=args, full_output=1, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._local.quad_depth = depth
            converged = len(res) == 3
            counts = tracer._counters()
            counts["quad.calls"] += 1
            counts["quad.converged"] += converged
            counts["quad.limit_hits"] += (not converged) and res[2]["last"] >= kwargs.get("limit", 50)
            if depth == 0:
                counts["quad.s"] += dt
            if full_output:
                return res
            if not converged:
                warnings.warn(res[3], IntegrationWarning, stacklevel=2)
            return res[:2]

        return traced_quad

    def quad_eval_counter(self, quad):
        """scipy.integrate.quad with its integrand evaluations counted
        (counting pass)."""
        tracer = self

        @functools.wraps(quad)
        def counted_quad(func, *args, **kwargs):
            evals = 0

            def counted(*x):
                nonlocal evals
                evals += 1
                return func(*x)

            try:
                return quad(counted, *args, **kwargs)
            finally:
                tracer._counters()["quad.evals"] += evals

        return counted_quad


def _public_functions(module, layer: str):
    for name, obj in vars(module).items():
        if name.startswith("_") or (layer == "cli" and name not in CLI_FUNCTIONS):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer, counting: bool):
    """Patch in the wrappers of the timing pass, or with counting=True those
    of the counting pass; returns a function that restores the originals."""
    from scipy import integrate

    wrappers = {}
    for layer in LAYERS:
        if (layer == COUNTED_LAYER) != counting:
            continue
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in _public_functions(module, layer):
            make = tracer.count_wrapper if counting else tracer.span_wrapper
            wrappers[id(fn)] = (fn, make(f"{layer}.{name}", fn))
    patched = []
    modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    original_quad = integrate.quad
    integrate.quad = (tracer.quad_eval_counter if counting else tracer.quad_timer)(original_quad)
    patched.append((integrate, "quad", original_quad))

    def restore():
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)

    return restore
