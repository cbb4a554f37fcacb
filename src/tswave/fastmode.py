"""Viscous sub-layer modes and their error terms.

In the eps^{1/8} regime the fast mode is built from ratios of Airy
primitives evaluated at z + z0 with z = Y / delta; in the smaller-beta regime
it is an exponential hierarchy Phi_0 = e^{-varpi Y} plus iterated
double-integral corrections.  The error terms of the full system take the
fast mode as arrays on their grid by derivative order: ``airy_fast`` on a
given block of Airy ratios, or the hierarchy's level sums.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import airy
from .errors import RegimeMismatch, UnsupportedOrder
from .numerics import (
    backward_exp_integral,
    exp_kernel,
    forward_exp_integral,
    graded_grid,
    pointwise,
    tail_trapezoid,
)
from .profile import DEFAULT_PROFILE

__all__ = [
    "check_sublayer_scales",
    "airy_fast",
    "ExpFastHierarchy",
    "default_hierarchy_terms",
    "fast_errors",
    "measure_tau1",
]


def check_sublayer_scales(params):
    """Raise ValueError unless arg z0 lies in its angular window (eps^{1/8}
    regime)."""
    z0 = params.z0
    arg_off = np.angle(z0) + 5.0 * math.pi / 6.0
    # the offset shrinks like 1/A^2 at the disk center, but boundary
    # samples of the A = 2 certification disk reach offsets near 0.30
    if not 0.0 < arg_off < 0.35:
        raise ValueError(
            f"arg z0 = {np.angle(z0):.6f} outside (-5pi/6, -5pi/6 + 0.35)")


def airy_fast(which, order, Y, params, ratios):
    """Airy fast mode (eps^{1/8} regime): Phi = Ai(2, z+z0)/Ai(2, z0) in the
    sub-layer variable, Psi = delta * (-Ai(3, z+z0))/Ai(2, z0), each to
    order 2.

    ``ratios`` is the block Ai(k, Y/delta + z0)/Ai(2, z0), k = 0..3, at these
    Y, with a point axis after the order for a block of wave speeds.
    """
    if not params.is_eighth:
        raise RegimeMismatch("airy_fast is the eps^{1/8}-regime fast mode")
    if which not in ("Phi", "Psi"):
        raise ValueError("which must be 'Phi' or 'Psi'")
    if order < 0 or order > 2:
        raise UnsupportedOrder(f"{which} order {order}")
    delta = params.delta
    if which == "Phi":
        return delta ** (-order) * ratios[2 - order]
    return -delta ** (1 - order) * ratios[3 - order]


# nodes kept past the last nonzero node of e^{-varpi Y}, per hierarchy level:
# each level reaches at most about 3.3 nodes past the one below on the default
# and build_bvp grids for eps <= 1e-12, beta <= 0.12; a level that reaches
# further costs a second build on the whole grid, not accuracy
_MARGIN_PER_LEVEL = 4


def default_hierarchy_terms(params):
    """Smallest N with N nu0 > 1 + nu0, plus one step of margin."""
    nu0 = params.nu0
    return int(math.ceil((1.0 + nu0) / nu0)) + 1


class ExpFastHierarchy:
    """Exponential fast-mode hierarchy of the beta regime for a block of wave
    speeds ``params``, SpectralParams that differ only in c, on a (k, N)
    array of one grid per point or one shared (N,) grid; by default each
    point gets 2000 nodes clustered at 1/Re varpi.  ``varpi`` holds the
    points' rates as a (k, 1) column.

    Level 0 is e^{-varpi Y}; level k solves the next second-order problem with
    the previous level's transport terms as source, via the same
    double-integral kernels as the magnetic solver.  The levels are (k, N)
    arrays, formed on first use from the Phi and inner integral that the
    recurrence keeps; while every row is finite, each row has the bits of its
    point's hierarchy alone (the stacked exp-integral solves pass a NaN on).
    """

    def __init__(self, params, grid=None, n_terms=None):
        p = params[0]
        if p.is_eighth:
            raise RegimeMismatch("exponential hierarchy applies to beta < 1/8")
        self.params = params
        self.n_terms = default_hierarchy_terms(p) if n_terms is None else n_terms
        self.n, self.varpi = p.n, pointwise(lambda q: q.varpi, params)
        if grid is None:
            grid = [graded_grid(2000, q.far_field, cluster_scale=1.0 / q.varpi.real)
                    for q in params]
        self.grid = np.asarray(grid, dtype=float)
        # e^{-varpi Y} underflows to 0 once Re(varpi) Y > 745.2, long before
        # the far field; each level spreads a few nodes past the one below, so
        # run the recurrence on the prefix that holds every row's level-0
        # support plus a margin, and on the whole grid if some row of some
        # level is still nonzero at the cut
        n, margin = self.grid.shape[-1], _MARGIN_PER_LEVEL * self.n_terms
        reach = np.count_nonzero(self.varpi.real * self.grid <= 750.0, axis=-1)
        head = np.exp(-self.varpi * self.grid[..., :min(n, reach.max() + margin)])
        cut = min(n, head.shape[-1] + margin - np.argmax(head[:, ::-1] != 0, axis=1).min())
        self._cut_levels = self._levels(head[:, :cut])
        if cut < n and self._cut_levels[:, 0, :, -1].any():
            self._cut_levels = self._levels(np.exp(-self.varpi * self.grid))

    def _levels(self, phi):
        """(Phi, inner integral) of levels 1..n_terms as an (n_terms, 2, k,
        cut) block on the first cut nodes, from level 0 ``phi`` there.

        Where level k - 1 is exactly 0 from node cut - 1 on, the whole-grid
        recurrence has zero sources there: its tail integral is constant and
        both exp-integral recurrences carry 0, so the prefix is the whole-grid
        result bit for bit, and level k is 0 past the cut unless it is
        nonzero at node cut - 1.  One block: freeing the first one, mapped on
        its own, raises glibc malloc's trim threshold past it, while separate
        level arrays freed together made every build regrow the heap.
        """
        grid = self.grid[..., :phi.shape[-1]]
        kernel = exp_kernel(grid, self.varpi[:, 0])
        us, dus = DEFAULT_PROFILE.eval("U", 0, grid), DEFAULT_PROFILE.eval("U", 1, grid)
        levels = np.empty((self.n_terms, 2) + phi.shape, dtype=complex)
        for phi_k, inner in levels:
            anti = -tail_trapezoid(dus * phi, grid)
            inner[:] = backward_exp_integral(-us * phi + 2.0 * anti, grid, kernel)
            np.multiply(1j * self.n, forward_exp_integral(inner, grid, kernel),
                        out=phi_k)
            phi = phi_k
        return levels

    def _whole(self, level0, levels):
        """``level0``, then the (n_terms, k, cut) ``levels`` with +0 past the cut."""
        out = np.zeros(levels.shape[:-1] + self.grid.shape[-1:], dtype=complex)
        out[..., :levels.shape[-1]] = levels
        return [level0] + list(out)

    @cached_property
    def phi_levels(self):
        return self._whole(np.exp(-self.varpi * self.grid), self._cut_levels[:, 0])

    @cached_property
    def dphi_levels(self):
        phi, inner = self._cut_levels[:, 0], self._cut_levels[:, 1]
        return self._whole(-self.varpi * self.phi_levels[0],
                           -self.varpi * phi + 1j * self.n * inner)

    @cached_property
    def psi_levels(self):
        # tail of level 0 is exact: int_Y^inf e^{-varpi X} dX
        return ([self.phi_levels[0] / self.varpi]
                + [tail_trapezoid(p, self.grid) for p in self.phi_levels[1:]])

    def sum_arrays(self, which, order):
        if which == "Phi":
            return np.sum((self.phi_levels, self.dphi_levels)[order], axis=0)
        if order == 0:
            return np.sum(self.psi_levels, axis=0)
        # dY Psi_k = -Phi_k, dYY Psi_k = -dY Phi_k
        base = (self.phi_levels, self.dphi_levels)[order - 1]
        return -np.sum(base, axis=0)

    def boundary_slope_sum(self):
        """sum_{k>=1} dY Phi_k^f(0), the hierarchy part of the dispersion
        slope, a (k,) array from the wall node of each level alone."""
        return sum(-self.varpi[:, 0] * phi[:, 0] + 1j * self.n * inner[:, 0]
                   for phi, inner in self._cut_levels)


def fast_errors(Y, prof, params, slow_boundary_value, phi, psi, phi_last=None):
    """Fast-mode error terms (e1f, e2f, e3f, ff) of the regime of ``params``,
    verbatim.

    ``prof`` holds the profile arrays at Y.  ``phi`` and ``psi`` hold
    Phi_app^f and Psi_app^f at Y by derivative order: Phi to order 2 (the
    eps^{1/8} regime's e3f reads it) and Psi to order 1.  ``phi_last``, the
    highest hierarchy level and its first derivative at Y, enters only the
    beta-regime divergence term e1f.  ``params`` is a block, a tuple of
    SpectralParams that differ only in c: the arrays have a row per point
    and ``slow_boundary_value`` holds one value per point.
    """
    Yarr = np.asarray(Y, dtype=float)
    p = params[0]
    if phi_last is None and not p.is_eighth:
        raise ValueError("the beta-regime e1f needs the top hierarchy level phi_last")
    a, n, se = p.alpha, p.n, p.sqrt_eps
    c = pointwise(lambda q: q.c, params)
    chat = pointwise(lambda q: q.c_hat, params)
    B = pointwise(complex, slow_boundary_value)
    us, dus, d2us, hs, dhs, d2hs = prof

    ff = -B * (a**2 * psi[0]
               + 1j * a * (us - c) * psi[0]
               - 1j * a * hs * phi[0])
    if p.is_eighth:
        slope0 = DEFAULT_PROFILE.eval("U", 1, 0.0)
        return (-B * ((-2j * a**2 / n) * phi[1]
                      - se * hs * psi[1]
                      - (a / n) * (us - c) * psi[0]
                      + (a / n) * hs * phi[0]),
                -B * ((a**3 / n) * phi[0]
                      + 1j * a * (us - chat) * phi[0]
                      - (a / n) * phi[0]
                      - 1j * a * se * hs * psi[0]),
                -B * ((us - slope0 * Yarr) * phi[2]
                      - d2us * phi[0]
                      + se * dhs * psi[1]
                      + se * d2hs * psi[0]),
                ff)
    return (-B * ((-1j / n) * (2.0 * a**2 + 1.0) * phi[1]
                  + us * phi_last[1]
                  - dus * phi_last[0]
                  - se * hs * psi[1]
                  - (a / n) * (us - c) * psi[0]
                  + (a / n) * hs * phi[0]),
            -B * ((a / n) * (a**2 - 1.0) * phi[0]
                  + 1j * a * (us - chat) * phi[0]
                  - 1j * a * se * hs * psi[0]),
            -B * (se * dhs * psi[1] + se * d2hs * psi[0]),
            ff)


# sample points of the least-squares fit in ``measure_tau1``
_TAU1_POINTS = 40


def measure_tau1(params):
    """Measured decay constant of the Airy fast mode: least-squares slope of
    -log|Phi_app^f| against n^{1/3} Y (the constant is existential in the
    underlying estimates, so it is reported from data, not assumed)."""
    n13 = params.n ** (1.0 / 3.0)
    Y = np.linspace(0.2 / n13, 4.0 / n13, _TAU1_POINTS)
    vals = np.abs(airy.ai_k(2, Y / params.delta + params.z0) / airy.ai_k(2, params.z0))
    mask = vals > 0.0
    slope = np.polyfit(n13 * Y[mask], -np.log(vals[mask]), 1)[0]
    return float(slope)
