"""Dispersion functions and certified root finding.

Gamma0 is the boundary slope of the combined approximate mode; its zero
restores the no-slip condition and locates the approximate eigenvalue.  The
certification pairs an adaptive winding count on the disk boundary with a
damped Newton refinement, and (optionally) a gap comparison against the
affine reference map whose root and boundary modulus are known exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import airy, fastmode, slowmode
from .errors import WindingNotOne
from .numerics import Circle, RootTrace, newton_root, winding_samples

__all__ = [
    "DispersionReport",
    "gamma0",
    "gamma0_and_fast_pair",
    "gamma_ref_hat",
    "center_eighth",
    "disk_eighth",
    "gamma0_beta",
    "gamma0_of_hierarchy",
    "gamma_ref_beta",
    "center_beta",
    "disk_beta",
    "taylor_series",
    "find_root_certified",
    "certify",
    "center_c",
    "certify_eighth",
]


@dataclass
class DispersionReport:
    c_root: complex | None      # the root in the disk's variable
    winding: int
    samples: int                # boundary points evaluated by the winding count
    boundary_min_abs: float
    reference_gap_max: float
    newton: RootTrace | None
    disk: Circle
    variable: str = "c"         # the disk's variable: 'c' or 'c_hat'
    c: complex | None = None    # the root as a wave speed (set by ``certify``)
    series_tail: float = math.nan   # ``taylor_series``'s tail of the first
                                    # winding round (NaN: winding not one)

    @property
    def certified(self):
        return (self.winding == 1 and self.newton is not None
                and self.newton.converged)


# -- eps^{1/8} regime --

def center_eighth(params):
    """Leading approximate eigenvalue (as a c_hat value)."""
    A = params.amplitude
    return (A + cmath.exp(1j * math.pi / 4.0) / A) * params.eps ** 0.125


def disk_eighth(params):
    """Certification disk in the c_hat variable."""
    A = params.amplitude
    radius = A ** (-1.0 - params.theta) * params.eps ** 0.125
    return Circle(center=center_eighth(params), radius=radius)


def gamma0(c, params):
    """Boundary slope of the approximate mode at wave speed c (eps^{1/8} regime).

    ``c`` is a scalar or an array: all points share one Airy evaluation of
    both primitives.  A scalar comes back as ``complex``, equal to that entry of
    an array call.  Points with Im c_hat <= 0 raise the ValueError of
    ``SpectralParams`` for the lowest of them.
    """
    scalar = np.ndim(c) == 0
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    params.with_c(c[np.argmin(c.imag)])     # the Im c_hat > 0 check, on the lowest point
    chat = c + 1j / params.n
    out = _gamma0(slowmode.boundary_values(params, c_hat=chat),
                  *airy.ai_k((1, 2), params.z0_at(chat)), params.delta)
    return complex(out[0]) if scalar else out


def _gamma0(wall, ai1, ai2, delta):
    """Gamma0 from the slow mode's wall values (Phi_app^s(0), dY Phi_app^s(0))
    and Ai(1, z0), Ai(2, z0) at the same points."""
    phi0, dphi0 = wall
    return dphi0 - phi0 * (ai1 / ai2) / delta


def gamma0_and_fast_pair(points, chat, wall, grid):
    """``gamma0`` at the wave speed of each of ``points`` together with the
    Airy fast mode on ``grid`` from the same Airy evaluation: Phi_app^f of
    orders 0..2 and Psi_app^f of orders 0..1, each ``fastmode.airy_fast`` on
    the grid.

    ``points`` is a tuple of SpectralParams that differ only in c, one per
    point of a block, ``chat`` their shifted wave speeds as an array and
    ``wall`` the slow mode's wall values there, as ``slowmode.boundary_values``
    returns them.  The one evaluation holds orders 0..3 at each point's wall
    offset z0 = ``z0_at(chat)``, which is also its ``params.z0``, and on its
    grid block Y / delta + z0: Gamma0 and the fast mode's denominator read
    the same Ai(k, z0).  Each element of one evaluation takes the terms it
    would take alone, so every value is that of its separate evaluation.
    Gamma0 comes back as a (k,) array and each array of the fast mode with
    a row per point.
    """
    p = points[0]
    z0 = p.z0_at(chat)[:, None]
    airy._check_sector(z0)
    fastmode.check_sublayer_scales(z0)   # before the grid block is evaluated
    grid = np.asarray(grid, dtype=float)
    z = np.concatenate([z0, grid / p.delta + z0], axis=1)
    ai = airy._ai_any((0, 1, 2, 3), z.ravel()).reshape((4,) + z.shape)
    ratios = ai[:, :, 1:] / ai[2, :, :1]
    phi = tuple(fastmode.airy_fast("Phi", o, grid, p, ratios) for o in range(3))
    psi = tuple(fastmode.airy_fast("Psi", o, grid, p, ratios) for o in range(2))
    gamma = _gamma0(wall, ai[1, :, 0], ai[2, :, 0], p.delta)
    return gamma, (phi, psi)


def gamma_ref_hat(h, params):
    """Affine reference map: unique zero at h = A + e^{i pi/4}/A, modulus
    A^{-theta} on the certification circle."""
    A = params.amplitude
    return 1.0 + cmath.exp(-1j * math.pi / 4.0) * A * (A - h)


# -- beta regime --

def center_beta(params):
    a = params.alpha
    return a + a ** (1.0 + params.nu0) * cmath.exp(1j * math.pi / 4.0)


def disk_beta(params, r3=0.5):
    if not 0.0 < r3 < math.sqrt(2.0) / 2.0:
        raise ValueError("r3 must lie in (0, sqrt(2)/2)")
    return Circle(center=center_beta(params),
                  radius=r3 * params.alpha ** (1.0 + params.nu0))


# points per hierarchy block of ``gamma0_beta``: their arrays stay below the
# trim threshold that freeing a level block sets in glibc malloc; 8-point blocks
# made 4 000 page faults per beta_hierarchy pass and 1.3 MB more peak RSS
_GAMMA0_BLOCK = 4


def gamma0_beta(c, params):
    """Boundary slope of the approximate mode built on the exponential hierarchy,
    at a scalar c as a ``complex`` or at each point of an array, one hierarchy
    per ``_GAMMA0_BLOCK`` points; each value has the bits of its point alone."""
    cs = np.asarray(c, dtype=complex)
    out = []
    for i in range(0, cs.size, _GAMMA0_BLOCK):
        points = tuple(params.with_c(v) for v in cs.ravel()[i:i + _GAMMA0_BLOCK])
        wall = slowmode.boundary_values(params, c_hat=np.array([q.c_hat for q in points]))
        out.extend(gamma0_of_hierarchy(*wall, fastmode.ExpFastHierarchy(points)))
    return complex(out[0]) if cs.ndim == 0 else np.array(out, dtype=complex).reshape(cs.shape)


def gamma0_of_hierarchy(phi0, dphi0, hier):
    """Boundary slope of the approximate mode from the slow mode's wall values
    and an exponential fast hierarchy (beta regime), one value per point of
    its block, each formed in scalar arithmetic."""
    return np.array([complex(d) - complex(b) * (-q.varpi + s) for b, d, q, s
                     in zip(phi0, dphi0, hier.params, hier.boundary_slope_sum())])


def gamma_ref_beta(c, params):
    a = params.alpha
    return 1.0 + a ** (-(1.0 + params.nu0)) * cmath.exp(-1j * math.pi / 4.0) * (-c + a)


# -- certification --

# radii from the disk center past which Newton's walk is stopped: certified
# Gamma0 paths from the center reach at most 1.13 radii over A = 1.5 to 5
# with eps = 1e-8 to 1e-40 and over M = 1 with beta = 0.1075 to 0.12.  Over
# the eighth_sweep and beta_hierarchy benchmark inputs of seeds 0-7, the 152
# certified eps^{1/8} walks start at the series root (at most 0.991 radii
# out) and take no step; 2 of the 39 beta walks, from the center, step
# outside the disk, at most 1.12 radii
_NEWTON_REACH = 1.5

# largest ``taylor_series`` tail at which Newton starts from the series root.
# Measured at M = 64: Gamma0 of the eps^{1/8} regime 2.2e-16 to 4.2e-15 at
# A = 2, 2.5, 3, 4, 5 and eps = 1e-12 to 1e-40 and 1.6e-16 to 4.3e-15 on the
# eighth_sweep benchmark rows (Newton then takes 0 steps at every certified
# point); Gamma0_beta 4.7e-6 to 5.2e-4 at M = 1, beta = 0.1075 to 0.115, as
# it is not analytic in c; the exact Gamma at A = 2, eps = 1e-12 and 1e-14,
# N = 400 and 1600, 0.70 to 0.97.  Those two start from the center.
_SERIES_TAIL_MAX = 1e-8
# coefficients next to k = M/2 that measure whether M samples resolve g
_TAIL_BAND = 4


def taylor_series(thetas, vals):
    """Coefficients of g about the center of a circle from M samples
    ``vals`` at the equispaced phases ``thetas`` = theta_0 + 2 pi j / M: the
    trapezoidal rule gives b_k = (1/M) sum_j g_j e^{-i k theta_j} for
    k = -M/2 .. M/2 - 1, with g(center + r w) = sum_k b_k w^k for an analytic g.

    Returns ``(b, tail)``: b_0 .. b_{M/2-1}, and the largest |b_k| at k < 0
    or within ``_TAIL_BAND`` places of M/2 relative to the largest |b_k|.
    The tail is at rounding level when g is analytic in the disk and the
    samples resolve it on the circle.
    """
    m = thetas.size
    k = np.arange(m) - m // 2
    # e^{-i k theta_j} = e^{-i k theta_0} e^{-2 pi i (kj mod M) / M}: M
    # exponentials, not M^2.  Summed rather than multiplied, and read by
    # slices rather than boolean masks: in a sweep process the first matrix
    # product or boolean mask maps 0.13-0.19 MB more numpy code (peak RSS)
    roots = np.exp(-2j * math.pi / m * np.arange(m))
    b = ((roots[np.outer(k, np.arange(m)) % m] * vals).sum(axis=1)
         * np.exp(-1j * thetas[0] * k) / m)
    mags = np.abs(b)
    tail = max(mags[:m // 2].max(), mags[m - _TAIL_BAND:].max()) / mags.max()
    return b[m // 2:], float(tail)


def _series_root(b, max_iter=50):
    """Root of sum_k b_k w^k in the unit disk by Newton from w = 0 on the
    polynomial, which evaluates no g.  None when the walk passes
    ``_NEWTON_REACH``, stalls, or ends outside the unit disk."""
    coeffs = [complex(v) for v in b[::-1]]
    w = 0j
    for _ in range(max_iter):
        p = dp = 0j
        for v in coeffs:
            dp = dp * w + p
            p = p * w + v
        if dp == 0.0:
            return None
        step = p / dp
        w -= step
        if not abs(w) <= _NEWTON_REACH:
            return None
        if abs(step) <= 1e-14:
            return w if abs(w) < 1.0 else None
    return None


def find_root_certified(g, disk, tol=1e-12, init_samples=64, g_ref=None,
                        max_iter=60, variable="c"):
    """Winding count on the disk boundary; on winding one, Newton refinement.
    ``g`` takes an ndarray of points and returns one value per point, and so
    does ``g_ref``, called once at the boundary points of ``g``'s samples.
    The report carries the number of boundary samples (the first ``samples``
    points evaluated by ``g``), the boundary modulus floor and, when a
    reference map is supplied, the maximal boundary gap |g - g_ref| at those
    points.

    Newton starts from the root of g's Taylor series in the disk, read off
    the winding count's first round of ``init_samples`` points by
    ``taylor_series``, when its tail is at most ``_SERIES_TAIL_MAX``;
    otherwise, or when the series has no root inside, from the center.  The
    report's ``series_tail`` is that tail.
    The root counts as certified only when Newton converges inside the disk.
    Newton's path may leave the disk and come back, but it stops, and its
    last iterate is reported uncertified, once an iterate lies more than
    ``_NEWTON_REACH`` radii from the center.

    Raises WindingNotOne when the count differs from one (the report is
    attached to the exception for diagnostics) and propagates ZeroOnContour.
    """
    winding, thetas, vals = winding_samples(g, disk, init_samples)
    boundary_min = float(np.min(np.abs(vals)))
    gap_max = math.nan
    if g_ref is not None:
        ref_vals = g_ref(disk.point(thetas))
        gap_max = float(np.max(np.abs(vals - ref_vals)))
    if winding != 1:
        # raised unbound: a local name for the exception would tie it to this
        # frame through its traceback, keeping g and its captures alive
        raise WindingNotOne(winding, report=DispersionReport(
            c_root=None, winding=winding, samples=thetas.size,
            boundary_min_abs=boundary_min, reference_gap_max=gap_max,
            newton=None, disk=disk, variable=variable))
    # the first round without its closing sample: refinement only inserts
    # midpoints after thetas[0], so its phases are found by value
    phases = thetas[0] + np.linspace(0.0, 2.0 * math.pi, init_samples + 1)[:-1]
    index = dict(zip(thetas.tolist(), range(thetas.size)))
    first = [index[t] for t in phases.tolist()]
    b, tail = taylor_series(thetas[first], vals[first])
    w = _series_root(b) if tail <= _SERIES_TAIL_MAX else None
    start = disk.center if w is None else disk.center + disk.radius * w
    root, trace = newton_root(g, start, tol=tol, max_iter=max_iter,
                              region=Circle(disk.center, _NEWTON_REACH * disk.radius))
    if not disk.contains(root, slack=1e-9):
        trace.converged = False
    return DispersionReport(c_root=root, winding=winding, samples=thetas.size,
                            boundary_min_abs=boundary_min,
                            reference_gap_max=gap_max, newton=trace, disk=disk,
                            variable=variable, series_tail=tail)


def certify(params, r3=0.5, tol=1e-12, init_samples=64, g=None, max_iter=60):
    """Certify the leading eigenvalue of either regime on its disk: Gamma0 of
    the regime by default (with the gap to its reference map), or ``g``, any
    dispersion function of the wave speed c such as the exact Gamma.  ``g``
    takes an ndarray of wave speeds and returns one value per point.

    The eps^{1/8} regime counts and refines in c_hat = c + i/n on
    ``disk_eighth``, the beta regime in c itself on ``disk_beta(params, r3)``;
    the report's ``variable`` names the one used and ``c`` holds the root as
    a wave speed.
    """
    if params.is_eighth:
        disk, variable, to_c = disk_eighth(params), "c_hat", params.chat_to_c
        g0, g_ref = gamma0, lambda w: gamma_ref_hat(w / params.eps ** 0.125, params)
    else:
        disk, variable, to_c = disk_beta(params, r3), "c", lambda w: w
        g0, g_ref = gamma0_beta, lambda w: gamma_ref_beta(w, params)
    if g is None:
        def g(c):
            return g0(c, params)
    else:
        g_ref = None
    report = find_root_certified(lambda w: g(to_c(w)), disk, tol=tol,
                                 init_samples=init_samples, g_ref=g_ref,
                                 max_iter=max_iter, variable=variable)
    report.c = to_c(report.c_root)
    return report


def center_c(params):
    """Wave speed c at the center of the certification disk."""
    if params.is_eighth:
        return params.chat_to_c(center_eighth(params))
    return center_beta(params)


def certify_eighth(params, tol=1e-12, init_samples=64):
    """``certify`` in the eps^{1/8} regime: the report's root is a c_hat value."""
    return certify(params, tol=tol, init_samples=init_samples)
