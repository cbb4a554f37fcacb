"""Per-layer spans and counters for the traced run.

Wrappers go around the public functions of each ``tswave`` module, bound
under the name the caller looks up (``fastmode.backward_exp_integral`` and
``magnetic.backward_exp_integral`` are separate bindings of one kernel).  The
span name's prefix is the layer; metrics are per pass of the input set.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("airy.calls", "count"), ("airy.self_s", "s"), ("airy.asymptotic_frac", "ratio"),
    ("slowmode.calls", "count"), ("slowmode.self_s", "s"),
    ("magnetic.solves", "count"), ("magnetic.picard_iters", "count"),
    ("magnetic.contraction_max", "ratio"), ("magnetic.self_s", "s"),
    ("numerics.exp_integral_calls", "count"), ("numerics.exp_integral_s", "s"),
    ("numerics.exp_integral_ns_per_node", "ns"), ("numerics.exp_integral_wall_frac", "ratio"),
    ("fastmode.hierarchy_builds", "count"), ("fastmode.hierarchy_self_s", "s"),
    ("fastmode.fast_errors_self_s", "s"),
    ("osresolvent.error_terms_self_s", "s"), ("osresolvent.factorizations", "count"),
    ("osresolvent.factor_s", "s"), ("osresolvent.splu_s", "s"),
    ("osresolvent.alternation_steps", "count"), ("osresolvent.alternation_ratio_max", "ratio"),
    ("osresolvent.alternation_self_s", "s"), ("osresolvent.gamma_evals", "count"),
    ("osresolvent.gamma_eval_p50_s", "s"), ("osresolvent.nan_norm_cells", "count"),
    ("dispersion.g_evals", "count"), ("dispersion.winding_samples", "count"),
    ("dispersion.winding_refine_frac", "ratio"), ("dispersion.newton_iters", "count"),
    ("dispersion.newton_evals_per_iter", "ratio"), ("dispersion.winding_s", "s"),
    ("dispersion.newton_s", "s"),
    ("cli.render_s", "s"), ("cli.export_self_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def install(rec, lib):
    """Wrap every layer boundary of the library in ``lib``."""
    counts, maxima = rec.counts, rec.maxima
    airy_threshold = lib.airy.M_THRESHOLD

    def airy_args(z):
        z = np.abs(np.asarray(z))
        counts["airy.args"] += z.size
        counts["airy.asymptotic"] += int(np.count_nonzero(z >= airy_threshold))

    def after_ai_k(args, kwargs, result, nested):
        if not nested:
            counts["airy.calls"] += 1
            airy_args(args[1])

    def after_airy_fast(args, kwargs, result, nested):
        if not nested:
            counts["airy.calls"] += 1
            params = args[3]
            airy_args(np.asarray(args[2], dtype=float) / params.delta + params.z0)

    rec.wrap(lib.airy, "ai_k", "airy.ai_k", after=after_ai_k)
    rec.wrap(lib.fastmode, "airy_fast", "airy.airy_fast", after=after_airy_fast)

    def after_slow(args, kwargs, result, nested):
        if not nested:
            counts["slowmode.calls"] += 1

    for fn in ("boundary_values", "phi_app_s_mode", "phi_app_s", "slow_errors"):
        rec.wrap(lib.slowmode, fn, f"slowmode.{fn}", after=after_slow)

    def after_solve(args, kwargs, result, nested):
        trace = result[1]
        counts["magnetic.solves"] += 1
        counts["magnetic.picard_iters"] += len(trace.gaps)
        maxima["magnetic.contraction_max"] = max(
            [maxima["magnetic.contraction_max"], *trace.ratios])

    rec.wrap(lib.magnetic, "build_psi_app_s", "magnetic.build_psi_app_s")
    rec.wrap(lib.magnetic, "solve_magnetic", "magnetic.solve_magnetic", after=after_solve)

    def after_exp(args, kwargs, result, nested):
        counts["numerics.exp_integral_calls"] += 1
        counts["numerics.exp_integral_nodes"] += len(args[1])

    for module in (lib.fastmode, lib.magnetic):
        for fn in ("backward_exp_integral", "forward_exp_integral"):
            rec.wrap(module, fn, "numerics.exp_integral", after=after_exp)

    def after_hierarchy(args, kwargs, result, nested):
        counts["fastmode.hierarchy_builds"] += 1

    rec.wrap(lib.fastmode.ExpFastHierarchy, "__init__", "fastmode.hierarchy",
             after=after_hierarchy)
    rec.wrap(lib.fastmode, "fast_errors", "fastmode.fast_errors")

    osr = lib.osresolvent

    def count(key):
        def after(args, kwargs, result, nested):
            counts[key] += 1
        return after

    def after_iterate(args, kwargs, result, nested):
        trace = result[-1]
        counts["osresolvent.alternation_steps"] += len(trace.e_norms) - 1
        maxima["osresolvent.alternation_ratio_max"] = max(
            [maxima["osresolvent.alternation_ratio_max"], *trace.ratios])

    def after_norms(args, kwargs, result, nested):
        counts["osresolvent.nan_norm_cells"] += sum(math.isnan(v) for v in result.values())

    rec.wrap(osr, "build_bvp", "osresolvent.build_bvp")
    rec.wrap(osr, "assemble_error_terms", "osresolvent.error_terms")
    rec.wrap(osr, "error_norms", "osresolvent.error_norms", after=after_norms)
    rec.wrap(osr.OSIteration, "__init__", "osresolvent.factor")
    rec.wrap(osr, "splu", "osresolvent.splu", after=count("osresolvent.factorizations"))
    rec.wrap(osr.OSIteration, "iterate", "osresolvent.alternation", after=after_iterate)
    rec.wrap(osr, "remainder_and_gamma", "osresolvent.gamma",
             after=count("osresolvent.gamma_evals"))
    rec.wrap(osr, "build_mode", "osresolvent.build_mode")

    def counting(key):
        """Replace the dispersion function argument by one that counts its
        point evaluations (vectorised attempts that raise are not counted)."""
        def before(args, kwargs):
            g = args[0]

            def counted(w):
                val = g(w)
                counts[key] += np.size(val)
                return val
            return (counted, *args[1:]), kwargs
        return before

    def after_winding(args, kwargs, result, nested):
        init = args[2] if len(args) > 2 else kwargs.get("init_samples", 64)
        counts["dispersion.winding_samples"] += len(result[1])
        counts["dispersion.winding_initial"] += init + 1

    def after_newton(args, kwargs, result, nested):
        counts["dispersion.newton_iters"] += len(result[1].iterates) - 1

    # certify_* reach both through dispersion; the full-OS certification
    # imports winding_samples into cli and newton_root from numerics
    for module in (lib.dispersion, lib.cli):
        rec.wrap(module, "winding_samples", "dispersion.winding",
                 before=counting("dispersion.winding_evals"), after=after_winding)
    for module in (lib.dispersion, lib.numerics):
        rec.wrap(module, "newton_root", "dispersion.newton",
                 before=counting("dispersion.newton_evals"), after=after_newton)

    rec.wrap(lib.cli, "render_report", "cli.render")
    rec.wrap(lib.cli, "export_mode", "cli.export_mode")


def metrics(rec, traced_walls, overhead, bytes_per_pass):
    """Per-pass values of every metric in METRICS.  Times are wall-clock
    seconds as measured (not calibrated); ``traced_walls`` are the traced
    passes' times and ``overhead`` the traced/untraced ratio minus one."""
    n = len(traced_walls)
    st = rec.self_times()
    c = rec.counts

    def self_s(*names):
        return sum(st.get(k, 0.0) for k in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    exp_s = self_s("numerics.exp_integral")
    newton_evals = c["dispersion.newton_evals"]
    gamma_durations = rec.durations({"osresolvent.gamma"})
    values = {
        "airy.calls": c["airy.calls"] / n,
        "airy.self_s": self_s("airy.ai_k", "airy.airy_fast"),
        "airy.asymptotic_frac": ratio(c["airy.asymptotic"], c["airy.args"]),
        "slowmode.calls": c["slowmode.calls"] / n,
        "slowmode.self_s": self_s("slowmode.boundary_values", "slowmode.phi_app_s_mode",
                                  "slowmode.phi_app_s", "slowmode.slow_errors"),
        "magnetic.solves": c["magnetic.solves"] / n,
        "magnetic.picard_iters": c["magnetic.picard_iters"] / n,
        "magnetic.contraction_max": rec.maxima["magnetic.contraction_max"],
        "magnetic.self_s": self_s("magnetic.build_psi_app_s", "magnetic.solve_magnetic"),
        "numerics.exp_integral_calls": c["numerics.exp_integral_calls"] / n,
        "numerics.exp_integral_s": exp_s,
        "numerics.exp_integral_ns_per_node": 1e9 * ratio(
            exp_s * n, c["numerics.exp_integral_nodes"]),
        "numerics.exp_integral_wall_frac": ratio(exp_s * n, sum(traced_walls)),
        "fastmode.hierarchy_builds": c["fastmode.hierarchy_builds"] / n,
        "fastmode.hierarchy_self_s": self_s("fastmode.hierarchy"),
        "fastmode.fast_errors_self_s": self_s("fastmode.fast_errors"),
        "osresolvent.error_terms_self_s": self_s("osresolvent.error_terms"),
        "osresolvent.factorizations": c["osresolvent.factorizations"] / n,
        "osresolvent.factor_s": sum(rec.durations({"osresolvent.factor"})) / n,
        "osresolvent.splu_s": self_s("osresolvent.splu"),
        "osresolvent.alternation_steps": c["osresolvent.alternation_steps"] / n,
        "osresolvent.alternation_ratio_max": rec.maxima["osresolvent.alternation_ratio_max"],
        "osresolvent.alternation_self_s": self_s("osresolvent.alternation"),
        "osresolvent.gamma_evals": c["osresolvent.gamma_evals"] / n,
        "osresolvent.gamma_eval_p50_s": (statistics.median(gamma_durations)
                                         if gamma_durations else 0.0),
        "osresolvent.nan_norm_cells": c["osresolvent.nan_norm_cells"] / n,
        "dispersion.g_evals": (c["dispersion.winding_evals"] + newton_evals) / n,
        "dispersion.winding_samples": c["dispersion.winding_samples"] / n,
        "dispersion.winding_refine_frac": ratio(
            c["dispersion.winding_samples"] - c["dispersion.winding_initial"],
            c["dispersion.winding_samples"]),
        "dispersion.newton_iters": c["dispersion.newton_iters"] / n,
        "dispersion.newton_evals_per_iter": ratio(newton_evals, c["dispersion.newton_iters"]),
        "dispersion.winding_s": sum(rec.durations({"dispersion.winding"})) / n,
        "dispersion.newton_s": sum(rec.durations({"dispersion.newton"})) / n,
        "cli.render_s": self_s("cli.render"),
        "cli.export_self_s": self_s("cli.export_mode"),
        "cli.bytes_written": bytes_per_pass,
        "trace.unattributed_frac": 1.0 - rec.root_time() / sum(traced_walls),
        "trace.overhead_frac": overhead,
    }
    return {name: (values[name], unit) for name, unit in METRICS}
