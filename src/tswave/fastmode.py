"""Viscous sub-layer modes and their error terms.

In the eps^{1/8} regime the fast mode is built from ratios of Airy
primitives evaluated at z + z0 with z = Y / delta; in the smaller-beta regime
it is an exponential hierarchy Phi_0 = e^{-varpi Y} plus iterated
double-integral corrections.  Both regimes expose ModeFunction views and the
corresponding error terms of the full system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import airy
from .errors import RegimeMismatch, UnsupportedOrder
from .numerics import (
    backward_exp_integral,
    forward_exp_integral,
    graded_grid,
    tail_trapezoid,
)
from .params import ModeFunction, memoize_on_grid, mode_from_grid
from .profile import DEFAULT_PROFILE

__all__ = [
    "SublayerScales",
    "airy_fast",
    "fast_mode_pair",
    "ExpFastHierarchy",
    "default_hierarchy_terms",
    "fast_errors",
    "measure_tau1",
]


@dataclass(frozen=True)
class SublayerScales:
    """Derived sub-layer quantities; construction validates the angular windows."""

    delta: complex
    z0: complex
    varpi: complex | None

    @classmethod
    def from_params(cls, params):
        delta = params.delta
        z0 = params.z0
        varpi = None
        arg_off = np.angle(z0) + 5.0 * math.pi / 6.0
        # the offset shrinks like 1/A^2 at the disk center, but boundary
        # samples of the A = 2 certification disk reach offsets near 0.30
        if not 0.0 < arg_off < 0.35:
            raise ValueError(
                f"arg z0 = {np.angle(z0):.6f} outside (-5pi/6, -5pi/6 + 0.35)")
        if not params.is_eighth:
            varpi = params.varpi
            lo = math.sqrt(2.0) / 3.0 * params.alpha ** (-(1.0 + params.nu0))
            if not lo / 1.5 < varpi.real < 3.0 * lo:
                raise ValueError(f"Re varpi = {varpi.real:.4e} outside its window")
        return cls(delta=delta, z0=z0, varpi=varpi)


def _ai_ratio(k, z, z0):
    return airy._ai_any(k, z) / airy.ai_k(2, z0)


def airy_fast(which, order, Y, params, primitives=None):
    """Airy fast mode (eps^{1/8} regime): Phi = Ai(2, z+z0)/Ai(2, z0) in the
    sub-layer variable, Psi = delta * (-Ai(3, z+z0))/Ai(2, z0).

    Orders 0..2 are the public surface; 3..4 exist for the fourth-order
    residual checks and stay on the Airy chain (no finite differences).
    ``primitives(k)``, when given, supplies Ai(k, z+z0)/Ai(2, z0) on these Y
    (``fast_mode_pair`` passes its per-grid memo).
    """
    if not params.is_eighth:
        raise RegimeMismatch("airy_fast is the eps^{1/8}-regime fast mode")
    if which not in ("Phi", "Psi"):
        raise ValueError("which must be 'Phi' or 'Psi'")
    maxo = 4 if which == "Phi" else 2
    if order < 0 or order > maxo:
        raise UnsupportedOrder(f"{which} order {order}")
    delta = params.delta
    if primitives is None:
        z0 = params.z0
        z = np.asarray(Y, dtype=float) / delta + z0

        def primitives(k):
            return _ai_ratio(k, z, z0)

    if which == "Phi":
        return delta ** (-order) * primitives(2 - order)
    return -delta ** (1 - order) * primitives(3 - order)


def fast_mode_pair(params):
    """(Phi_app^f, Psi_app^f) as ModeFunctions for the eps^{1/8} regime.

    Phi order o and Psi order o + 1 share the primitive Ai(2 - o, z + z0);
    each primitive is evaluated once per grid, and every value still comes
    from ``airy_fast``, the one evaluator of the fast mode.
    """
    if not params.is_eighth:
        raise RegimeMismatch("fast_mode_pair is the eps^{1/8}-regime fast mode")
    SublayerScales.from_params(params)
    tau = 0.5 * params.n ** (1.0 / 3.0)  # conservative envelope e^{-tau Y}
    delta = params.delta
    z0 = params.z0
    ratio = memoize_on_grid(lambda k, Y: _ai_ratio(k, Y / delta + z0, z0))

    def mode(which, max_order):
        return ModeFunction(
            max_order=max_order,
            evaluator=lambda o, Y: airy_fast(which, o, Y, params,
                                             lambda k: ratio(k, Y)),
            decay_rate=tau)

    return mode("Phi", 4), mode("Psi", 2)


def default_hierarchy_terms(params):
    """Smallest N with N nu0 > 1 + nu0, plus one step of margin."""
    nu0 = params.nu0
    return int(math.ceil((1.0 + nu0) / nu0)) + 1


class ExpFastHierarchy:
    """Exponential fast-mode hierarchy of the beta regime on a grid.

    Level 0 is e^{-varpi Y}; level k solves the next second-order problem with
    the previous level's transport terms as source, via the same
    double-integral kernels as the magnetic solver.  Psi levels are tail
    integrals of the Phi levels, formed on first use.
    """

    def __init__(self, params, grid=None, n_terms=None, profile=DEFAULT_PROFILE):
        if params.is_eighth:
            raise RegimeMismatch("exponential hierarchy applies to beta < 1/8")
        self.params = params
        self.n_terms = default_hierarchy_terms(params) if n_terms is None else n_terms
        varpi = params.varpi
        if grid is None:
            scale = 1.0 / varpi.real
            y_max = max(40.0, 8.0 / params.alpha)
            grid = graded_grid(2000, y_max, cluster_scale=scale)
        self.grid = np.asarray(grid, dtype=float)
        self.varpi = varpi

        us = profile.eval("U", 0, self.grid)
        dus = profile.eval("U", 1, self.grid)
        n = params.n
        phi = np.exp(-varpi * self.grid)
        dphi = -varpi * phi
        self.phi_levels = [phi]
        self.dphi_levels = [dphi]
        self.d2phi_levels = [varpi**2 * phi]
        self.rhs_levels = [np.zeros_like(phi)]
        for _ in range(1, self.n_terms + 1):
            prev = self.phi_levels[-1]
            anti = -tail_trapezoid(dus * prev, self.grid)
            rhs = -us * prev + 2.0 * anti
            inner = backward_exp_integral(rhs, self.grid, varpi)
            phi_k = 1j * n * forward_exp_integral(inner, self.grid, varpi)
            dphi_k = -varpi * phi_k + 1j * n * inner
            d2phi_k = -1j * n * (params.c * phi_k + rhs)
            self.phi_levels.append(phi_k)
            self.dphi_levels.append(dphi_k)
            self.d2phi_levels.append(d2phi_k)
            self.rhs_levels.append(rhs)

    @cached_property
    def psi_levels(self):
        # tail of level 0 is exact: int_Y^inf e^{-varpi X} dX
        return ([np.exp(-self.varpi * self.grid) / self.varpi]
                + [tail_trapezoid(p, self.grid) for p in self.phi_levels[1:]])

    def sum_arrays(self, which, order):
        if which == "Phi":
            store = (self.phi_levels, self.dphi_levels, self.d2phi_levels)[order]
            return np.sum(store, axis=0)
        if order == 0:
            return np.sum(self.psi_levels, axis=0)
        # dY Psi_k = -Phi_k, dYY Psi_k = -dY Phi_k
        base = (self.phi_levels, self.dphi_levels)[order - 1]
        return -np.sum(base, axis=0)

    def boundary_slope_sum(self):
        """sum_{k>=1} dY Phi_k^f(0), the hierarchy part of the dispersion slope."""
        return sum(d[0] for d in self.dphi_levels[1:])

    def level_mode(self, k):
        return mode_from_grid(self.grid,
                              [self.phi_levels[k], self.dphi_levels[k],
                               self.d2phi_levels[k]],
                              decay_rate=0.2 * self.varpi.real)

    def mode(self, which):
        if which == "Phi":
            arrays = [self.sum_arrays("Phi", o) for o in range(3)]
        else:
            arrays = [self.sum_arrays("Psi", o) for o in range(3)]
        return mode_from_grid(self.grid, arrays, decay_rate=0.2 * self.varpi.real)


def fast_errors(group, Y, params, slow_boundary_value, phi_app_f, psi_app_f,
                phi_last=None, profile=DEFAULT_PROFILE):
    """Fast-mode error terms, verbatim per regime.

    ``phi_last`` (the highest hierarchy level) enters only the beta-regime
    divergence term group 'E1f_beta'.
    """
    Yarr = np.asarray(Y, dtype=float)
    a = params.alpha
    n = params.n
    se = params.sqrt_eps
    c = params.c
    chat = params.c_hat
    B = complex(slow_boundary_value)
    us = profile.eval("U", 0, Yarr)
    dus = profile.eval("U", 1, Yarr)
    d2us = profile.eval("U", 2, Yarr)
    hs = profile.eval("H", 0, Yarr)
    dhs = profile.eval("H", 1, Yarr)
    d2hs = profile.eval("H", 2, Yarr)
    phi = phi_app_f
    psi = psi_app_f

    if group == "E1f":
        return -B * ((-2j * a**2 / n) * phi.eval(1, Yarr)
                     - se * hs * psi.eval(1, Yarr)
                     - (a / n) * (us - c) * psi.eval(0, Yarr)
                     + (a / n) * hs * phi.eval(0, Yarr))
    if group == "E2f":
        return -B * ((a**3 / n) * phi.eval(0, Yarr)
                     + 1j * a * (us - chat) * phi.eval(0, Yarr)
                     - (a / n) * phi.eval(0, Yarr)
                     - 1j * a * se * hs * psi.eval(0, Yarr))
    if group == "E3f":
        slope0 = profile.eval("U", 1, 0.0)
        return -B * ((us - slope0 * Yarr) * phi.eval(2, Yarr)
                     - d2us * phi.eval(0, Yarr)
                     + se * dhs * psi.eval(1, Yarr)
                     + se * d2hs * psi.eval(0, Yarr))
    if group == "Ff" or group == "Ff_beta":
        return -B * (a**2 * psi.eval(0, Yarr)
                     + 1j * a * (us - c) * psi.eval(0, Yarr)
                     - 1j * a * hs * phi.eval(0, Yarr))
    if group == "E1f_beta":
        if phi_last is None:
            raise ValueError("E1f_beta needs the top hierarchy level phi_last")
        return -B * ((-1j / n) * (2.0 * a**2 + 1.0) * phi.eval(1, Yarr)
                     + us * phi_last.eval(1, Yarr)
                     - dus * phi_last.eval(0, Yarr)
                     - se * hs * psi.eval(1, Yarr)
                     - (a / n) * (us - c) * psi.eval(0, Yarr)
                     + (a / n) * hs * phi.eval(0, Yarr))
    if group == "E2f_beta":
        return -B * ((a / n) * (a**2 - 1.0) * phi.eval(0, Yarr)
                     + 1j * a * (us - chat) * phi.eval(0, Yarr)
                     - 1j * a * se * hs * psi.eval(0, Yarr))
    if group == "E3f_beta":
        return -B * (se * dhs * psi.eval(1, Yarr) + se * d2hs * psi.eval(0, Yarr))
    raise ValueError(f"unknown error group {group!r}")


def measure_tau1(params, y_points=40):
    """Measured decay constant of the Airy fast mode: least-squares slope of
    -log|Phi_app^f| against n^{1/3} Y (the constant is existential in the
    underlying estimates, so it is reported from data, not assumed)."""
    n13 = params.n ** (1.0 / 3.0)
    Y = np.linspace(0.2 / n13, 4.0 / n13, y_points)
    vals = np.abs(airy_fast("Phi", 0, Y, params))
    mask = vals > 0.0
    slope = np.polyfit(n13 * Y[mask], -np.log(vals[mask]), 1)[0]
    return float(slope)
