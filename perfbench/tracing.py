"""Spans around lle's public functions, patched in from outside the program.

A span records a call's duration and the time its child spans took, keyed
by the request being run; self time is the difference. Spans are kept in
memory, aggregated per (request, span name), and written out by the runner
at the end. Names bound with ``from .x import y`` are patched where they are
used (``lle.coeffs.build_overlap_table``, ``lle.cli.disk_spectrum``, ...).
``numpy.linalg.eigvalsh`` is wrapped once; inside a ``coeffs``,
``disk_spectra`` or ``region_sim`` span it gets a span of that layer, and
elsewhere its time stays in the enclosing span's self time.
``cli.self_s`` is the self time of ``lle.cli.main``: argument parsing,
output formatting, and any lle work that runs outside every other span (the
scaling thread pool, ``rocca``'s loop over eps, ``spectrum``'s comparison of
the two solvers). Tracing assumes that one thread at a time runs lle
code, which ``--threads 1`` guarantees.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# layers whose eigvalsh calls are told apart
_EIGEN_LAYERS = ("coeffs", "disk_spectra", "region_sim")

# per-layer metrics that combine by maximum, over calls and over requests;
# every other count adds up
_MAX_METRICS = frozenset({"region_sim.max_dim", "region_sim.matrix_mib",
                          "identities.max_error_over_tolerance"})

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them.
# Times are self times. overlap_table_cells, sectors, kernel_entries,
# eigvalsh_flops and matrix_mib are computed from array sizes, not measured.
PER_LAYER = {
    "specfun.overlap_table_s": "s",
    "specfun.overlap_table_calls": "count",
    "specfun.overlap_table_cells": "count",
    "specfun.laguerre_s": "s",
    "specfun.laguerre_points": "count",
    "specfun.adaptive_quad_s": "s",
    "specfun.adaptive_quad_evals": "count",
    "coeffs.field_requests": "count",
    "coeffs.field_builds": "count",
    "coeffs.field_reuse_ratio": "ratio",
    "coeffs.field_s": "s",
    "coeffs.eigvalsh_s": "s",
    "coeffs.renyi_h_s": "s",
    "coeffs.coeff_self_s": "s",
    "disk_spectra.disk_spectrum_s": "s",
    "disk_spectra.disk_spectrum_calls": "count",
    "disk_spectra.disk_spectrum_failed": "count",
    "disk_spectra.sectors": "count",
    "disk_spectra.sector_gram_calls": "count",
    "disk_spectra.eigvalsh_s": "s",
    "disk_spectra.entropy_s": "s",
    "region_sim.kernel_matrix_s": "s",
    "region_sim.kernel_entries": "count",
    "region_sim.eigvalsh_s": "s",
    "region_sim.eigvalsh_flops": "flop",
    "region_sim.max_dim": "count",
    "region_sim.matrix_mib": "MiB",
    "region_sim.spectrum_self_s": "s",
    "region_sim.scaling_fit_s": "s",
    "geometry.intersect_area_s": "s",
    "geometry.intersect_area_calls": "count",
    "geometry.star_radius_calls": "count",
    "geometry.star_radius_points": "count",
    "geometry.rocca_integrals_s": "s",
    "identities.suite_s": "s",
    "identities.cases": "count",
    "identities.failed_cases": "count",
    "identities.max_error_over_tolerance": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "cli.crashes": "count",
    "trace.overhead_s": "s",
}

# span name -> the metric its self time feeds
_SELF_TIME = {
    "specfun.build_overlap_table": "specfun.overlap_table_s",
    "specfun.laguerre": "specfun.laguerre_s",
    "specfun.adaptive_quad": "specfun.adaptive_quad_s",
    "coeffs.field": "coeffs.field_s",
    "coeffs.renyi_h": "coeffs.renyi_h_s",
    "coeffs.coeff": "coeffs.coeff_self_s",
    "disk_spectra.disk_spectrum": "disk_spectra.disk_spectrum_s",
    "disk_spectra.entropy": "disk_spectra.entropy_s",
    "region_sim.kernel_matrix": "region_sim.kernel_matrix_s",
    "region_sim.region_spectrum": "region_sim.spectrum_self_s",
    "region_sim.scaling_fit": "region_sim.scaling_fit_s",
    "geometry.intersect_area": "geometry.intersect_area_s",
    "geometry.rocca_integrals": "geometry.rocca_integrals_s",
    "identities.suite": "identities.suite_s",
    "cli.main": "cli.self_s",
    "coeffs.eigvalsh": "coeffs.eigvalsh_s",
    "disk_spectra.eigvalsh": "disk_spectra.eigvalsh_s",
    "region_sim.eigvalsh": "region_sim.eigvalsh_s",
}


class _Frame:
    __slots__ = ("name", "start", "child", "built")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.built = False


class Tracer:
    """Installs the spans on ``install()`` and removes them on ``remove()``."""

    def __init__(self):
        self.request = None
        self.stack: list[_Frame] = []
        # (request id, span name) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (request id, metric) -> value, combined as _MAX_METRICS says
        self.counts = defaultdict(float)
        self._patches = []

    # -- recording ----------------------------------------------------------

    def count(self, metric: str, value: float):
        key = (self.request, metric)
        if metric in _MAX_METRICS:
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def enclosing_layer(self) -> str | None:
        for frame in reversed(self.stack):
            layer = frame.name.split(".", 1)[0]
            if layer in _EIGEN_LAYERS:
                return layer
        return None

    def call(self, name, fn, args, kwargs, on_exit=None):
        frame = _Frame(name, time.perf_counter())
        self.stack.append(frame)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - frame.start
            if self.stack:
                self.stack[-1].child += dur
            rec = self.spans[(self.request, name)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame.child
            if on_exit is not None:
                on_exit(frame, args, kwargs, result if ok else None, ok)
        return result

    def span(self, name, fn, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_exit)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr, None)
        if original is None:
            return  # the program no longer has this name: nothing to trace
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span_at(self, owners, attr, name, on_exit=None):
        for owner in owners:
            self._patch(owner, attr, lambda fn: self.span(name, fn, on_exit))

    def _counter_at(self, owners, attr, on_call):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                on_call(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper
        for owner in owners:
            self._patch(owner, attr, factory)

    def install(self):
        import lle.cli
        import lle.coeffs
        import lle.disk_spectra
        import lle.geometry
        import lle.identities
        import lle.landau
        import lle.region_sim
        import lle.specfun
        everywhere = [lle.cli, lle.coeffs, lle.disk_spectra, lle.geometry,
                      lle.identities, lle.landau, lle.region_sim, lle.specfun]

        def overlap_exit(frame, args, kwargs, result, ok):
            self.count("specfun.overlap_table_calls", 1)
            if self.stack and self.stack[-1].name == "coeffs.field":
                self.stack[-1].built = True
            if ok:
                self.count("specfun.overlap_table_cells", result.values.size)
        self._span_at(everywhere, "build_overlap_table",
                      "specfun.build_overlap_table", overlap_exit)

        def laguerre_exit(frame, args, kwargs, result, ok):
            self.count("specfun.laguerre_points", np.size(args[2]))
        self._span_at(everywhere, "laguerre", "specfun.laguerre", laguerre_exit)

        def quad_factory(fn):
            def wrapper(f, *args, **kwargs):
                def integrand(x):
                    self.count("specfun.adaptive_quad_evals", 1)
                    return f(x)
                return self.call("specfun.adaptive_quad", fn,
                                 (integrand, *args), kwargs)
            return functools.wraps(fn)(wrapper)
        for mod in everywhere:
            self._patch(mod, "adaptive_quad", quad_factory)

        def field_exit(frame, args, kwargs, result, ok):
            self.count("coeffs.field_requests", 1)
            self.count("coeffs.field_builds", int(frame.built))
        for attr in ("gram_eigen_field", "lambda_field"):
            self._span_at([lle.coeffs], attr, "coeffs.field", field_exit)
        self._span_at([lle.coeffs], "renyi_h", "coeffs.renyi_h")
        # xi grids, Hoelder fits, tail bounds and the integrands over the
        # eigen-fields: the coefficient work outside field builds
        for attr in ("coeff_with_error", "spectral_function_from_spec"):
            self._span_at([lle.coeffs], attr, "coeffs.coeff")

        def disk_exit(frame, args, kwargs, result, ok):
            self.count("disk_spectra.disk_spectrum_calls", 1)
            self.count("disk_spectra.disk_spectrum_failed", int(not ok))
        self._span_at(everywhere, "disk_spectrum", "disk_spectra.disk_spectrum",
                      disk_exit)
        self._counter_at([lle.disk_spectra], "sector_gram", lambda a, k: self.count(
            "disk_spectra.sector_gram_calls", 1))
        self._span_at(everywhere, "entropy_from_spectrum", "disk_spectra.entropy")

        def kernel_exit(frame, args, kwargs, result, ok):
            if ok:
                self.count("region_sim.kernel_entries", result[0].size)
        self._span_at([lle.region_sim], "region_kernel_matrix",
                      "region_sim.kernel_matrix", kernel_exit)
        self._span_at([lle.region_sim], "region_spectrum",
                      "region_sim.region_spectrum")
        self._span_at([lle.region_sim], "scaling_fit", "region_sim.scaling_fit")

        def eigvalsh_factory(fn):
            def wrapper(a, *args, **kwargs):
                layer = self.enclosing_layer()
                if layer is None:
                    return fn(a, *args, **kwargs)
                a_arr = np.asarray(a)
                if layer == "disk_spectra":
                    self.count("disk_spectra.sectors",
                               a_arr.shape[0] if a_arr.ndim == 3 else 1)
                elif layer == "region_sim":
                    n = a_arr.shape[-1]
                    complex_ = np.iscomplexobj(a_arr)
                    # Householder tridiagonalisation dominates: 4/3 n^3
                    # multiply-adds, each 4 real flops for complex input
                    self.count("region_sim.eigvalsh_flops",
                               (16.0 if complex_ else 4.0) / 3.0 * n ** 3)
                    self.count("region_sim.max_dim", n)
                    self.count("region_sim.matrix_mib",
                                   a_arr.size * a_arr.itemsize / 2 ** 20)
                return self.call(f"{layer}.eigvalsh", fn, (a, *args), kwargs)
            return functools.wraps(fn)(wrapper)
        self._patch(np.linalg, "eigvalsh", eigvalsh_factory)

        def intersect_exit(frame, args, kwargs, result, ok):
            self.count("geometry.intersect_area_calls", 1)
        self._span_at([lle.geometry], "intersect_translates_area",
                      "geometry.intersect_area", intersect_exit)
        for attr in ("roccaforte_first_order", "roccaforte_second_order"):
            self._span_at([lle.geometry], attr, "geometry.rocca_integrals")

        def radius_call(args, kwargs):
            self.count("geometry.star_radius_calls", 1)
            self.count("geometry.star_radius_points", np.size(args[1]))
        self._counter_at([lle.geometry.SmoothStar], "radius", radius_call)

        def suite_exit(frame, args, kwargs, result, ok):
            if ok:
                self.count("identities.cases", result["cases"])
                self.count("identities.failed_cases", len(result["failures"]))
                self.count("identities.max_error_over_tolerance",
                               result["max_error_over_tolerance"])
        self._span_at([lle.identities], "run_suite", "identities.suite",
                      suite_exit)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, requests) -> dict:
        """Per-layer metrics summed over the given request ids."""
        wanted = set(requests)
        out = {name: 0.0 for name in PER_LAYER}
        for (rid, name), (calls, total, self_s) in self.spans.items():
            if rid in wanted and name in _SELF_TIME:
                out[_SELF_TIME[name]] += self_s
        for (rid, metric), value in self.counts.items():
            if rid not in wanted:
                continue
            if metric in _MAX_METRICS:
                out[metric] = max(out[metric], value)
            else:
                out[metric] += value
        if out["coeffs.field_requests"]:
            out["coeffs.field_reuse_ratio"] = \
                1.0 - out["coeffs.field_builds"] / out["coeffs.field_requests"]
        return out

    def span_table(self) -> list[dict]:
        return [{"request": rid, "span": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (rid, name), (calls, total, self_s)
                in sorted(self.spans.items())]
