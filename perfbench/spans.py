"""Spans around padicqft's public functions, installed from outside the package.

Each wrapped call opens a span; a span's self time is its duration minus the
durations of the spans opened inside it.  Self times and counters are summed
per round in memory and handed back by :meth:`Tracer.take`.  The program's
source is left untouched: wrappers replace every module-level binding of the
original function object across the loaded ``padicqft`` modules, so calls
through ``from .x import f`` bindings are traced too.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, public functions).  A name missing from a later
# version of the package is skipped, so the tracer never breaks a run.
SPANS = {
    "ultrametric.refine": ("ultrametric", ("refine",)),
    "lattice.distance": ("lattice", ("distance_exponent_matrix",)),
    "lattice.precision": ("lattice", ("precision_matrix",)),
    "lattice.covariance": ("lattice", ("covariance_matrix",)),
    "lattice.domination": ("lattice", ("domination_check",)),
    "lattice.monotonicity": ("lattice", ("monotonicity_check",)),
    "wick.poly_eval": ("wick", ("wick_poly_eval",)),
    "wick.l2_distance": ("wick", ("wick_l2_distance",)),
    "sampler.quadrature": ("sampler", ("schwinger_quadrature", "partition_function_quadrature")),
    "sampler.mc": ("sampler", ("schwinger_mc", "partition_function_mc", "partition_stability")),
    "sampler.griffiths": ("sampler", ("griffiths_check",)),
    # the shell series; per-term helpers (shell_measure, symbol_a) stay unwrapped
    "model.series": ("model", (
        "resolvent_ball_integral", "resolvent_tail_integral", "c_kappa_sq",
        "green_function", "green_regularized", "green_regularized_increment",
        "free_covariance_entry", "free_cell_variance",
    )),
    "verify.battery": ("verify", None),  # None: run_verify and every check_*
}

CLI_SUBCOMMANDS = ("integrals", "green", "lattice", "wick",
                   "schwinger_quadrature", "schwinger_mc", "verify")

# per_layer metric -> (kind, key); kind "self" is a span's self time per round
PER_LAYER = {
    "ultrametric.refine_s": ("self", "ultrametric.refine"),
    "lattice.distance_s": ("self", "lattice.distance"),
    "lattice.precision_s": ("self", "lattice.precision"),
    "lattice.covariance_s": ("self", "lattice.covariance"),
    "lattice.domination_s": ("self", "lattice.domination"),
    "lattice.monotonicity_s": ("self", "lattice.monotonicity"),
    "lattice.cells": ("count", "lattice.cells"),
    "wick.poly_eval_s": ("self", "wick.poly_eval"),
    "wick.poly_eval_values": ("count", "wick.poly_eval_values"),
    "wick.l2_distance_s": ("self", "wick.l2_distance"),
    "sampler.quadrature_s": ("self", "sampler.quadrature"),
    "sampler.quadrature_nodes": ("count", "sampler.quadrature_nodes"),
    "sampler.mc_s": ("self", "sampler.mc"),
    "sampler.mc_samples": ("count", "sampler.mc_samples"),
    "sampler.ess_per_sample": ("ratio", ("sampler.ess", "sampler.ess_samples")),
    "sampler.griffiths_s": ("self", "sampler.griffiths"),
    "model.series_s": ("self", "model.series"),
    "model.series_calls": ("count", "model.series_calls"),
    "verify.battery_s": ("self", "verify.battery"),
    **{f"cli.{sub}_s": ("self", f"cli.{sub}") for sub in CLI_SUBCOMMANDS},
}


def unit_of(metric: str) -> str:
    kind = PER_LAYER[metric][0]
    return {"self": "s", "count": "count", "ratio": "ratio"}[kind]


def _method(args, kwargs, position):
    if "method" in kwargs:
        return kwargs["method"]
    return args[position] if len(args) > position else None


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_time, kind]
        self._self = defaultdict(float)
        self._counts = defaultdict(int)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str, kind: str | None = None) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, kind])

    def _exit(self) -> float:
        name, start, child, _ = self._stack.pop()
        dur = time.perf_counter() - start
        self._self[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _kind(self) -> str | None:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span (used for calls the benchmark makes itself)."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def take(self) -> tuple[dict, dict]:
        """Self times and counters since the last take; resets both."""
        out = dict(self._self), dict(self._counts)
        self._self.clear()
        self._counts.clear()
        return out

    # -- hooks per span ---------------------------------------------------------

    def _wrap(self, span: str, fn_name: str, fn):
        tracer = self
        counts = self._counts

        if span == "wick.poly_eval":
            def wrapper(P, values, *args, **kwargs):
                arr = np.asarray(values)
                counts["wick.poly_eval_values"] += arr.size
                rows = arr.shape[0] if arr.ndim == 2 else 1
                kind = tracer._kind()
                if kind == "quadrature":
                    counts["sampler.quadrature_nodes"] += rows
                elif kind == "mc":
                    counts["sampler.mc_samples"] += rows
                tracer._enter(span)
                try:
                    return fn(P, values, *args, **kwargs)
                finally:
                    tracer._exit()
        elif span == "model.series":
            def wrapper(*args, **kwargs):
                if not any(f[0] == span for f in tracer._stack):
                    counts["model.series_calls"] += 1
                tracer._enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
        elif span in ("sampler.quadrature", "sampler.mc", "sampler.griffiths"):
            fixed = None if span == "sampler.griffiths" else span.split(".")[1]

            def wrapper(*args, **kwargs):
                kind = fixed or _method(args, kwargs, 3)
                tracer._enter(span, kind)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                ess = getattr(result, "ess", None)
                if fn_name in ("schwinger_mc", "partition_function_mc") and ess is not None \
                        and math.isfinite(ess):
                    counts["sampler.ess"] += ess
                    counts["sampler.ess_samples"] += result.n_samples
                return result
        elif span == "lattice.covariance":
            def wrapper(N, *args, **kwargs):
                counts["lattice.cells"] += N.lattice.eta
                tracer._enter(span)
                try:
                    return fn(N, *args, **kwargs)
                finally:
                    tracer._exit()
        else:
            def wrapper(*args, **kwargs):
                tracer._enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every public function named in SPANS across padicqft's modules."""
        import padicqft.verify  # noqa: F401  (loads every module the spans name)

        modules = [m for n, m in list(sys.modules.items())
                   if (n == "padicqft" or n.startswith("padicqft.")) and m is not None]
        replace = {}  # id(function) -> (function, wrapper); module values need not be hashable
        for span, (mod_name, names) in SPANS.items():
            mod = sys.modules.get(f"padicqft.{mod_name}")
            if mod is None:
                continue
            if names is None:
                names = [n for n in vars(mod) if n == "run_verify" or n.startswith("check_")]
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if callable(fn) and getattr(fn, "__module__", None) == mod.__name__:
                    replace[id(fn)] = (fn, self._wrap(span, fn_name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def round_metrics(self_s: dict, counts: dict) -> dict:
    """The per_layer metric values of one round."""
    out = {}
    for metric, (kind, key) in PER_LAYER.items():
        if kind == "self":
            out[metric] = self_s.get(key, 0.0)
        elif kind == "count":
            out[metric] = counts.get(key, 0)
        else:
            num, den = (counts.get(k, 0.0) for k in key)
            out[metric] = num / den if den else 0.0
    return out
