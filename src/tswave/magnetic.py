"""Magnetic stream-function equation: exponential lift plus Picard iteration.

Solves -(dYY - alpha^2) phi + i alpha (U_s - c) phi = f with phi(0) = phi_b
and decay at infinity by splitting off the lift e^{-xi Y} phi_b,
xi = sqrt(i alpha + alpha^2 - i alpha c) with Re xi > 0, and iterating the
mild (double-integral) formulation of the remainder.  The per-step gap in the
e^{eta Y}-weighted sup norm contracts like O(alpha).  The source is sampled
on the solve grid, and the solution comes back there with its first two
derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonContraction, NonConvergence
from .numerics import backward_exp_integral, forward_exp_integral, graded_grid
from .params import SpectralParams
from .profile import profile_arrays

__all__ = ["MagneticProblem", "MagneticTrace", "solve_magnetic",
           "build_psi_app_s", "default_magnetic_grid"]


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
    value, the source f sampled on the solve grid, its known envelope
    exponent ``decay_rate`` with |f(Y)| <~ e^{-decay_rate Y} (0 when
    unknown), and the weight exponent eta < sqrt(2 alpha)/4 for the
    contraction norm, capped by the source's rate when not given."""

    params: SpectralParams
    phi_b: complex
    f: np.ndarray
    decay_rate: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        ceiling = math.sqrt(2.0 * self.params.alpha) / 4.0
        if self.eta is None:
            self.eta = ceiling / 2.0
            if self.decay_rate > 0.0:
                self.eta = min(self.eta, 0.98 * self.decay_rate)
        if not 0.0 < self.eta < ceiling:
            raise ValueError(f"eta = {self.eta} outside (0, {ceiling})")

    @property
    def xi(self):
        p = self.params
        root = cmath.sqrt(1j * p.alpha + p.alpha**2 - 1j * p.alpha * p.c)
        return -root if root.real < 0.0 else root


def default_magnetic_grid(params, n_nodes=1200):
    return graded_grid(n_nodes, params.far_field, cluster_scale=1.0)


def solve_magnetic(prob, grid, tol=1e-10, max_picard=80):
    """Picard limit of the mild formulation on ``grid``, where ``prob.f`` is
    sampled; returns ((phi, dY phi, dYY phi) on the grid, trace).

    Stops when the weighted sup-norm gap between successive iterates drops
    below ``tol``; raises NonContraction if the gap ratio reaches 1 twice in
    a row, NonConvergence at the iteration budget, and ValueError when the
    source's shape is not the grid's.
    """
    p = prob.params
    grid = np.asarray(grid, dtype=float)
    f_vals = np.asarray(prob.f)
    if f_vals.shape != grid.shape:
        raise ValueError(f"magnetic source has shape {f_vals.shape}, "
                         f"the grid {grid.shape}")
    xi = prob.xi
    alpha = p.alpha
    prof = profile_arrays(grid)
    # i alpha (1 - U_s), the same at every Picard step
    coupling = 1j * alpha * prof.wake
    lift = np.exp(-xi * grid) * prob.phi_b
    f_tilde = f_vals + coupling * lift
    weight = np.exp(prob.eta * grid)

    trace = MagneticTrace()
    phi_t = np.zeros_like(grid, dtype=complex)
    inner = None
    rising = 0
    for _ in range(max_picard):
        g = f_tilde + coupling * phi_t
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
        f_tilde + coupling * phi_t, grid, xi, tail_rate=prob.eta)
    remapped = forward_exp_integral(inner_final, grid, xi)
    trace.residual_weighted = float(np.max(weight * np.abs(remapped - phi_t)))
    # dY phi_tilde = -xi phi_tilde + inner(Y) follows from the mild form
    dphi = -xi * lift - xi * phi_t + inner_final
    d2phi = alpha**2 * phi + 1j * alpha * (prof.us - p.c) * phi - f_vals
    return (phi, dphi, d2phi), trace


def build_psi_app_s(params, slow, fast_psi_at_0, slow_at_0, grid):
    """Magnetic slow mode on ``grid``: solve the magnetic equation with
    boundary value Phi_app^s(0) Psi_app^f(0) and source
    i alpha H_s Phi_app^s + dY Phi_app^s, where ``slow`` holds Phi_app^s and
    dY Phi_app^s on the grid.

    Returns the mode and its first two derivatives on the grid; the second is
    recovered from the equation itself rather than numerical differentiation.
    """
    f = 1j * params.alpha * profile_arrays(grid).hs * slow[0] + slow[1]
    prob = MagneticProblem(params=params, phi_b=complex(slow_at_0 * fast_psi_at_0),
                           f=f, decay_rate=min(params.alpha, 1.0))
    return solve_magnetic(prob, grid)[0]
