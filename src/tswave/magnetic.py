"""Magnetic stream-function equation: exponential lift plus Picard iteration.

Solves -(dYY - alpha^2) phi + i alpha (U_s - c) phi = f with phi(0) = phi_b
and decay at infinity by splitting off the lift e^{-xi Y} phi_b,
xi = sqrt(i alpha + alpha^2 - i alpha c) with Re xi > 0, and iterating the
mild (double-integral) formulation of the remainder.  The per-step gap in the
e^{eta Y}-weighted sup norm contracts like O(alpha).  A problem is a block of
wave speeds whose points run one Picard iteration together, with a row per
point: the source is sampled on the solve grid, and the solution comes back
there with its first two derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonContraction, NonConvergence
from .numerics import backward_exp_integral, exp_kernel, forward_exp_integral, pointwise
from .params import SpectralParams

__all__ = ["MagneticProblem", "MagneticTrace", "MagneticTraces", "solve_magnetic",
           "build_psi_app_s"]


@dataclass
class MagneticTrace:
    gaps: list = field(default_factory=list)
    converged: bool = False
    residual_weighted: float = math.inf

    @property
    def ratios(self):
        return [b / a for a, b in zip(self.gaps, self.gaps[1:]) if a > 0.0]


class MagneticTraces(tuple):
    """The ``MagneticTrace`` of each point of a solve, in point order;
    ``gaps`` and ``ratios`` run over the points in turn."""

    @property
    def gaps(self):
        return [g for trace in self for g in trace.gaps]

    @property
    def ratios(self):
        return [r for trace in self for r in trace.ratios]


@dataclass
class MagneticProblem:
    """Data for one magnetic solve of a block of wave speeds, one problem
    per point: ``params``, a tuple of SpectralParams that differ only in c,
    ``phi_b``, a tuple of boundary values, the source f sampled on the solve
    grid with a row per point, its known envelope exponent ``decay_rate``
    with |f(Y)| <~ e^{-decay_rate Y} (0 when unknown), and the weight
    exponent eta < sqrt(2 alpha)/4 for the contraction norm, capped by the
    source's rate when not given."""

    params: tuple[SpectralParams, ...]
    phi_b: tuple[complex, ...]
    f: np.ndarray
    decay_rate: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        ceiling = math.sqrt(2.0 * self.params[0].alpha) / 4.0
        if self.eta is None:
            self.eta = ceiling / 2.0
            if self.decay_rate > 0.0:
                self.eta = min(self.eta, 0.98 * self.decay_rate)
        if not 0.0 < self.eta < ceiling:
            raise ValueError(f"eta = {self.eta} outside (0, {ceiling})")

    @property
    def xi(self):
        """The decay rate of the lift at each point, a tuple."""
        def rate(p):
            root = cmath.sqrt(1j * p.alpha + p.alpha**2 - 1j * p.alpha * p.c)
            return -root if root.real < 0.0 else root

        return tuple(rate(p) for p in self.params)


def solve_magnetic(prob, grid, prof, tol=1e-10, max_picard=80):
    """Picard limit of the mild formulation on ``grid``, where ``prob.f`` is
    sampled and ``prof`` holds the profile arrays (U_s and its wake are
    read); returns ((phi, dY phi, dYY phi) on the grid, traces), each
    array (k, N) with a row per point and the traces a ``MagneticTraces``.

    Stops when the weighted sup-norm gap between successive iterates drops
    below ``tol``; raises NonContraction if the gap ratio reaches 1 twice in
    a row, NonConvergence at the iteration budget, and ValueError when the
    source is not (k, N) on the grid of N nodes.

    One Picard iteration runs over the k points, with each point's iterate
    a row of the (k, N) arrays.  A point's iterate stays fixed once its own
    gap is below ``tol``, and it keeps its own trace, so every row has the
    bits of a solve of its point alone.  A solve raises the exception of
    the first point that fails, in the iteration it fails:
    ``osresolvent.remainder_and_gamma`` then solves its points one by one.
    A point with a non-finite source can pass NaN to the next point's row
    through the stacked exp-kernel solve (0 * NaN), but such a row never
    meets ``tol``, so the block fails and no row it touched is returned.
    """
    points = prob.params
    grid = np.asarray(grid, dtype=float)
    f_vals = np.asarray(prob.f)
    k = len(points)
    if f_vals.shape != (k,) + grid.shape:
        raise ValueError(f"magnetic source has shape {f_vals.shape}, not one row "
                         f"per point ({k}) on the grid {grid.shape}")
    xis = prob.xi
    # the point scalars as (k, 1) columns
    xi = pointwise(complex, xis)
    c = pointwise(lambda p: p.c, points)
    phi_b = pointwise(complex, prob.phi_b)
    alpha = points[0].alpha
    # i alpha (1 - U_s), the same at every Picard step
    coupling = 1j * alpha * prof.wake
    lift = np.exp(-xi * grid) * phi_b
    f_tilde = f_vals + coupling * lift
    weight = np.exp(prob.eta * grid)
    kernel = exp_kernel(grid, xis)

    traces = [MagneticTrace() for _ in range(k)]
    phi_t = np.zeros((k, grid.size), dtype=complex)
    live = list(range(k))
    rising = [0] * k
    for _ in range(max_picard):
        # every row is iterated, and only the live ones take the new iterate
        inner = backward_exp_integral(f_tilde + coupling * phi_t, grid, kernel,
                                      tail_rate=prob.eta)
        new = forward_exp_integral(inner, grid, kernel)
        gaps = np.max(weight * np.abs(new - phi_t), axis=1)
        if len(live) == k:
            phi_t = new
        else:
            phi_t[live] = new[live]
        keep = []
        for j in live:
            trace = traces[j]
            trace.gaps.append(float(gaps[j]))
            if trace.gaps[-1] < tol:
                trace.converged = True
                continue
            if len(trace.gaps) >= 2 and trace.gaps[-1] >= trace.gaps[-2]:
                rising[j] += 1
                if rising[j] >= 2:
                    raise NonContraction(
                        f"gap ratio >= 1 twice (last gaps {trace.gaps[-3:]})")
            else:
                rising[j] = 0
            keep.append(j)
        live = keep
        if not live:
            break
    else:
        raise NonConvergence(
            f"Picard gap {traces[live[0]].gaps[-1]:.3e} after {max_picard} steps")

    phi = lift + phi_t
    # one more application of the Picard map: a-posteriori equation defect of
    # the returned iterate in the weighted sup norm (mild formulation)
    inner_final = backward_exp_integral(
        f_tilde + coupling * phi_t, grid, kernel, tail_rate=prob.eta)
    remapped = forward_exp_integral(inner_final, grid, kernel)
    residuals = np.max(weight * np.abs(remapped - phi_t), axis=1)
    for trace, res in zip(traces, residuals):
        trace.residual_weighted = float(res)
    # dY phi_tilde = -xi phi_tilde + inner(Y) follows from the mild form
    dphi = -xi * lift - xi * phi_t + inner_final
    d2phi = alpha**2 * phi + 1j * alpha * (prof.us - c) * phi - f_vals
    return (phi, dphi, d2phi), MagneticTraces(traces)


def build_psi_app_s(params, slow, fast_psi_at_0, slow_at_0, grid, prof):
    """Magnetic slow mode on ``grid``, whose profile arrays ``prof`` holds:
    solve the magnetic equation with boundary value Phi_app^s(0)
    Psi_app^f(0) and source i alpha H_s Phi_app^s + dY Phi_app^s, where
    ``slow`` holds Phi_app^s and dY Phi_app^s on the grid with a row per
    point of the block ``params``, and the two wall values hold one entry
    per point.

    Returns the mode and its first two derivatives on the grid; the second is
    recovered from the equation itself rather than numerical differentiation.
    """
    alpha = params[0].alpha
    f = 1j * alpha * prof.hs * slow[0] + slow[1]
    phi_b = tuple(complex(s * p) for s, p in zip(slow_at_0, fast_psi_at_0))
    prob = MagneticProblem(params=params, phi_b=phi_b, f=f, decay_rate=min(alpha, 1.0))
    return solve_magnetic(prob, grid, prof)[0]
