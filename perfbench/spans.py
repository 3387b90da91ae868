"""Per-layer spans recorded from the benchmark's own files.

``Tracer.install()`` replaces each layer's public functions with a wrapper
that records a span (name, start, end, parent) and the counts the per-layer
metrics need.  The library is not edited: the wrappers are set as module
attributes (every name-imported alias included, such as
``volswap.cli.return_moments``) and as class attributes for methods.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

# (span name, module, attribute); "Class.attr" names a method or property.
LAYER_FUNCTIONS = [
    ("model.return_moments", "volswap.model", "return_moments"),
    ("model.mean_forms", "volswap.model", "ReturnMoments.mean_forms"),
    ("model.delta_bar", "volswap.model", "ReturnMoments.delta_bar"),
    ("rvdist.coeffs", "volswap.rvdist", "coeffs"),
    ("rvdist.raw_moment", "volswap.rvdist", "raw_moment"),
    ("rvdist.truncation_bound", "volswap.rvdist", "truncation_bound"),
    ("rvdist.coeffs_hp", "volswap.rvdist", "coeffs_hp"),
    ("rvdist.raw_moment_hp", "volswap.rvdist", "raw_moment_hp"),
    ("swaps.vol_swap_tv", "volswap.swaps", "vol_swap_tv"),
    ("swaps.var_swap_tv", "volswap.swaps", "var_swap_tv"),
    ("options.moment_hp", "volswap.options", "LaguerreMoments.moment_hp"),
    ("options.call_price", "volswap.options", "call_price"),
    ("mc.simulate_rv", "volswap.mc", "simulate_rv"),
    ("mc.estimate", "volswap.mc", "estimate_swap"),
    ("mc.estimate", "volswap.mc", "estimate_call"),
    ("cli.main", "volswap.cli", "main"),
]

SELF_MS = [
    "model.return_moments", "model.mean_forms", "model.delta_bar",
    "rvdist.coeffs", "rvdist.raw_moment", "rvdist.truncation_bound",
    "rvdist.coeffs_hp", "rvdist.raw_moment_hp",
    "swaps.vol_swap_tv", "swaps.var_swap_tv",
    "options.moment_hp", "options.call_price",
    "mc.simulate_rv", "mc.estimate", "cli.main",
]

class Tracer:
    """Spans and counts for one run; ``request_seconds`` holds each request's
    timed wall time."""

    def __init__(self, rel_tol: float):
        self.rel_tol = rel_tol
        self.spans: list[list] = []  # [name, start, end, parent index, children]
        self.request_seconds: list[float] = []
        self.first_seconds: list[float] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.rebuilds = 0  # coeffs_hp calls on one model instance beyond its first
        self._hp_rm = None  # the model instance of the latest coeffs_hp call
        self._local = threading.local()

    # ---- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        spans, stack_of, observe = self.spans, self._stack, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            if parent >= 0:
                spans[parent][4] += 1
            spans.append([name, time.perf_counter(), 0.0, parent, 0])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
                observe(name, idx, args, kwargs, result)

        return traced

    def _observe(self, name, idx, args, kwargs, result):
        """Counts taken at the layer boundary."""
        c = self.counts
        c[name + ".calls"] += 1
        if name in ("swaps.vol_swap_tv", "swaps.var_swap_tv") and result is not None:
            bound = result.error_bound
            if bound is not None and math.isfinite(bound) and bound <= self.rel_tol * abs(result.strike):
                c["swaps.certified"] += 1
        elif name == "rvdist.coeffs_hp":
            c["rvdist.coeffs_hp.terms"] += args[2] if len(args) > 2 else kwargs["k_max"]
            # Workloads use one LaguerreMoments per model instance, in turn.
            if args[0] is self._hp_rm:
                self.rebuilds += 1
            else:
                self._hp_rm = args[0]
                c["options.instances"] += 1
        elif name == "rvdist.raw_moment_hp" and result is not None and result[1]:
            c["rvdist.raw_moment_hp.converged"] += 1
        elif name == "options.moment_hp":
            # A cache hit does no coefficient or moment work below it.
            if self.spans[idx][4] == 0:
                c["options.moment_hp.hits"] += 1
        elif name == "options.call_price" and result is not None:
            c["options.call_price.converged"] += 1
        elif name == "mc.simulate_rv" and result is not None:
            params, schedule, cfg = args[:3]
            c["mc.steps"] += cfg.n_paths * (schedule.n_obs - 1)

    def install(self) -> None:
        import importlib
        import sys

        for name, mod_name, attr in LAYER_FUNCTIONS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, property):
                    setattr(cls, meth, property(self.wrap(name, orig.fget)))
                else:
                    setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("volswap"):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    # ---- reporting -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name: duration minus the time
        covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self, span_cost_s: float) -> dict[str, float]:
        n_req = max(len(self.request_seconds), 1)
        req_total = sum(self.request_seconds)
        self_t = self.self_times()
        c = self.counts
        out = {f"{n}.self_ms": 1e3 * self_t.get(n, 0.0) / n_req for n in SELF_MS}
        top_level = sum(e - s for _, s, e, p, _ in self.spans if p < 0)
        out["harness.self_ms"] = 1e3 * (req_total - top_level) / n_req

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        quotes = c["swaps.vol_swap_tv.calls"] + c["swaps.var_swap_tv.calls"]
        out["swaps.certified_frac"] = c["swaps.certified"] / quotes if quotes else 0.0
        out["rvdist.coeffs_hp.calls"] = c["rvdist.coeffs_hp.calls"] / n_req
        out["rvdist.coeffs_hp.terms"] = c["rvdist.coeffs_hp.terms"] / n_req
        out["rvdist.raw_moment_hp.converged_frac"] = frac(
            "rvdist.raw_moment_hp.converged", "rvdist.raw_moment_hp.calls")
        out["options.moment_hp.cache_hit_frac"] = frac(
            "options.moment_hp.hits", "options.moment_hp.calls")
        inst = c["options.instances"]
        out["options.hp_rebuilds"] = self.rebuilds / inst if inst else 0.0
        out["options.call_price.converged_frac"] = frac(
            "options.call_price.converged", "options.call_price.calls")
        sim_s = sum(e - s for name, s, e, _, _ in self.spans if name == "mc.simulate_rv")
        out["mc.msteps_per_s"] = c["mc.steps"] / sim_s / 1e6 if sim_s else 0.0
        out["trace.request_ms"] = 1e3 * req_total / n_req
        out["trace.first_result_ms_p50"] = 1e3 * statistics.median(self.first_seconds or [0.0])
        out["trace.overhead_frac"] = span_cost_s * len(self.spans) / req_total if req_total else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "request_seconds": self.request_seconds}, fh)


def span_cost(n: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer(0.0)
    traced = tracer.wrap("noop", noop)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        best = min(best, (time.perf_counter() - t0 - bare) / n)
        tracer.spans.clear()
    return max(best, 0.0)
