"""Magnetic stream-function equation: exponential lift plus Picard iteration.

Solves -(dYY - alpha^2) phi + i alpha (U_s - c) phi = f with phi(0) = phi_b
and decay at infinity by splitting off the lift e^{-xi Y} phi_b,
xi = sqrt(i alpha + alpha^2 - i alpha c) with Re xi > 0, and iterating the
mild (double-integral) formulation of the remainder.  The per-step gap in the
e^{eta Y}-weighted sup norm contracts like O(alpha).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonContraction, NonConvergence
from .numerics import backward_exp_integral, forward_exp_integral, graded_grid
from .params import ModeFunction, SpectralParams, mode_from_grid
from .profile import DEFAULT_PROFILE

__all__ = ["MagneticProblem", "MagneticTrace", "solve_magnetic",
           "build_psi_app_s", "default_magnetic_grid", "equation_residual"]


@dataclass
class MagneticTrace:
    gaps: list = field(default_factory=list)
    converged: bool = False
    residual_weighted: float = math.inf

    @property
    def ratios(self):
        return [b / a for a, b in zip(self.gaps, self.gaps[1:]) if a > 0.0]


@dataclass
class MagneticProblem:
    """Data for one magnetic solve: wavenumber/speed via params, boundary
    value, source (as a ModeFunction so the tail envelope is known), and the
    weight exponent eta < sqrt(2 alpha)/4 for the contraction norm."""

    params: SpectralParams
    phi_b: complex
    f: ModeFunction
    eta: float | None = None

    def __post_init__(self):
        ceiling = math.sqrt(2.0 * self.params.alpha) / 4.0
        if self.eta is None:
            self.eta = ceiling / 2.0
            if self.f.decay_rate > 0.0:
                self.eta = min(self.eta, 0.98 * self.f.decay_rate)
        if not 0.0 < self.eta < ceiling:
            raise ValueError(f"eta = {self.eta} outside (0, {ceiling})")

    @property
    def xi(self):
        p = self.params
        root = cmath.sqrt(1j * p.alpha + p.alpha**2 - 1j * p.alpha * p.c)
        return -root if root.real < 0.0 else root


def default_magnetic_grid(params, n_nodes=1200, y_max=None):
    y_max = y_max or max(40.0, 8.0 / params.alpha)
    return graded_grid(n_nodes, y_max, cluster_scale=1.0)


def solve_magnetic(prob, tol=1e-10, max_picard=80, grid=None,
                   profile=DEFAULT_PROFILE):
    """Picard limit of the mild formulation; returns (ModeFunction, trace).

    Stops when the weighted sup-norm gap between successive iterates drops
    below ``tol``; raises NonContraction if the gap ratio reaches 1 twice in
    a row, NonConvergence at the iteration budget.
    """
    p = prob.params
    grid = default_magnetic_grid(p) if grid is None else np.asarray(grid, dtype=float)
    xi = prob.xi
    alpha = p.alpha
    one_minus_us = profile.wake(grid)
    lift = np.exp(-xi * grid) * prob.phi_b
    f_vals = prob.f.eval(0, grid)
    f_tilde = f_vals + 1j * alpha * one_minus_us * lift
    weight = np.exp(prob.eta * grid)

    trace = MagneticTrace()
    phi_t = np.zeros_like(grid, dtype=complex)
    inner = None
    rising = 0
    for _ in range(max_picard):
        g = f_tilde + 1j * alpha * one_minus_us * phi_t
        inner = backward_exp_integral(g, grid, xi, tail_rate=prob.eta)
        new = forward_exp_integral(inner, grid, xi)
        gap = float(np.max(weight * np.abs(new - phi_t)))
        trace.gaps.append(gap)
        phi_t = new
        if gap < tol:
            trace.converged = True
            break
        if len(trace.gaps) >= 2 and trace.gaps[-1] >= trace.gaps[-2]:
            rising += 1
            if rising >= 2:
                raise NonContraction(
                    f"gap ratio >= 1 twice (last gaps {trace.gaps[-3:]})")
        else:
            rising = 0
    else:
        raise NonConvergence(f"Picard gap {trace.gaps[-1]:.3e} after {max_picard} steps")

    phi = lift + phi_t
    # one more application of the Picard map: a-posteriori equation defect of
    # the returned iterate in the weighted sup norm (mild formulation)
    inner_final = backward_exp_integral(
        f_tilde + 1j * alpha * one_minus_us * phi_t, grid, xi, tail_rate=prob.eta)
    remapped = forward_exp_integral(inner_final, grid, xi)
    trace.residual_weighted = float(np.max(weight * np.abs(remapped - phi_t)))
    # dY phi_tilde = -xi phi_tilde + inner(Y) follows from the mild form
    dphi = -xi * lift - xi * phi_t + inner_final
    us = profile.eval("U", 0, grid)
    d2phi = alpha**2 * phi + 1j * alpha * (us - p.c) * phi - f_vals
    mode = mode_from_grid(grid, [phi, dphi, d2phi],
                          decay_rate=min(xi.real, prob.eta))
    return mode, trace


def equation_residual(mode, prob, Y, step=1e-3, profile=DEFAULT_PROFILE):
    """Differential residual -(phi'' - alpha^2 phi) + i alpha (U_s - c) phi - f
    with the second derivative taken by central differences of the solution
    values.  Carries the O(step^2) + interpolation error of the discretization
    on top of the solver's fixed-point defect; use ``trace.residual_weighted``
    for the defect alone."""
    p = prob.params
    Y = np.asarray(Y, dtype=float)
    us = profile.eval("U", 0, Y)
    d2 = (mode.eval(0, Y + step) - 2.0 * mode.eval(0, Y) + mode.eval(0, Y - step)) / step**2
    return (-(d2 - p.alpha**2 * mode.eval(0, Y))
            + 1j * p.alpha * (us - p.c) * mode.eval(0, Y) - prob.f.eval(0, Y))


def build_psi_app_s(params, slow, fast_psi_at_0, slow_at_0, grid=None,
                    profile=DEFAULT_PROFILE):
    """Magnetic slow mode: solve the magnetic equation with boundary value
    Phi_app^s(0) Psi_app^f(0) and source i alpha H_s Phi_app^s + dY Phi_app^s.

    The returned mode carries two derivatives; the second is recovered from
    the equation itself rather than numerical differentiation.
    """
    if slow.max_order < 1:
        raise ValueError("slow mode must provide one derivative")

    def source(order, Y):
        if order != 0:
            raise NotImplementedError
        hs = profile.eval("H", 0, Y)
        return 1j * params.alpha * hs * slow.eval(0, Y) + slow.eval(1, Y)

    f_mode = ModeFunction(max_order=0, evaluator=source,
                          decay_rate=min(params.alpha, 1.0))
    prob = MagneticProblem(params=params, phi_b=complex(slow_at_0 * fast_psi_at_0),
                           f=f_mode)
    mode, _ = solve_magnetic(prob, grid=grid, profile=profile)
    return mode
