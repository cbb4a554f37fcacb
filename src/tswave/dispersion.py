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
from .profile import DEFAULT_PROFILE

__all__ = [
    "DispersionReport",
    "gamma0",
    "gamma_ref_hat",
    "center_eighth",
    "disk_eighth",
    "gamma0_beta",
    "gamma_ref_beta",
    "center_beta",
    "disk_beta",
    "find_root_certified",
    "certify_eighth",
    "certify_beta",
]


@dataclass
class DispersionReport:
    c_root: complex | None
    winding: int
    samples: int                # boundary points evaluated by the winding count
    boundary_min_abs: float
    reference_gap_max: float
    newton: RootTrace | None
    disk: Circle
    variable: str = "c"

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


def gamma0(c, params, profile=DEFAULT_PROFILE):
    """Boundary slope of the approximate mode at wave speed c (eps^{1/8} regime).

    ``c`` is a scalar or an array: all points share one call of each Airy
    primitive.  A scalar comes back as ``complex``, equal to that entry of
    an array call.  Points with Im c_hat <= 0 raise the ValueError of
    ``SpectralParams`` for the lowest of them.
    """
    scalar = np.ndim(c) == 0
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    params.with_c(c[np.argmin(c.imag)])     # the Im c_hat > 0 check, on the lowest point
    chat = c + 1j / params.n
    phi0, dphi0 = slowmode.boundary_values(params, profile, c_hat=chat)
    z0 = params.z0_at(chat)
    ratio = airy.ai_k(1, z0) / airy.ai_k(2, z0)
    out = dphi0 - phi0 * ratio / params.delta
    return complex(out[0]) if scalar else out


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


def gamma0_beta(c, params, profile=DEFAULT_PROFILE):
    """Boundary slope of the approximate mode built on the exponential hierarchy."""
    p = params.with_c(c)
    phi0, dphi0 = slowmode.boundary_values(p, profile)
    hier = fastmode.ExpFastHierarchy(p, profile=profile)
    return dphi0 - phi0 * (-p.varpi + hier.boundary_slope_sum())


def gamma_ref_beta(c, params):
    a = params.alpha
    return 1.0 + a ** (-(1.0 + params.nu0)) * cmath.exp(-1j * math.pi / 4.0) * (-c + a)


# -- certification --

def find_root_certified(g, disk, tol=1e-12, init_samples=64, g_ref=None,
                        max_iter=60):
    """Winding count on the disk boundary; on winding one, Newton refinement
    from the center.  The report carries the number of boundary samples (the
    first ``samples`` evaluations of ``g``), the boundary modulus floor and,
    when a reference map is supplied, the maximal boundary gap |g - g_ref|.
    The root counts as certified only when Newton converges inside the disk.

    Raises WindingNotOne when the count differs from one (the report is
    attached to the exception for diagnostics) and propagates ZeroOnContour.
    """
    winding, thetas, vals = winding_samples(g, disk, init_samples)
    boundary_min = float(np.min(np.abs(vals)))
    gap_max = math.nan
    if g_ref is not None:
        ref_vals = np.array([g_ref(disk.point(t)) for t in thetas])
        gap_max = float(np.max(np.abs(vals - ref_vals)))
    if winding != 1:
        # raised unbound: a local name for the exception would tie it to this
        # frame through its traceback, keeping g and its captures alive
        raise WindingNotOne(winding, report=DispersionReport(
            c_root=None, winding=winding, samples=thetas.size,
            boundary_min_abs=boundary_min, reference_gap_max=gap_max,
            newton=None, disk=disk))
    root, trace = newton_root(g, disk.center, tol=tol, max_iter=max_iter)
    if not disk.contains(root, slack=1e-9):
        trace.converged = False
    return DispersionReport(c_root=root, winding=winding, samples=thetas.size,
                            boundary_min_abs=boundary_min,
                            reference_gap_max=gap_max, newton=trace, disk=disk)


def certify_eighth(params, tol=1e-12, init_samples=64, profile=DEFAULT_PROFILE):
    """Certify the approximate eigenvalue in the c_hat disk.

    The report's root is a c_hat value (``variable == 'c_hat'``); convert with
    ``params.chat_to_c``.
    """
    disk = disk_eighth(params)

    def g(chat):
        return gamma0(params.chat_to_c(chat), params, profile)

    def g_ref(chat):
        return gamma_ref_hat(chat / params.eps ** 0.125, params)

    report = find_root_certified(g, disk, tol=tol, init_samples=init_samples,
                                 g_ref=g_ref)
    report.variable = "c_hat"
    return report


def certify_beta(params, r3=0.5, tol=1e-10, init_samples=64,
                 profile=DEFAULT_PROFILE):
    """Certify the beta-regime approximate eigenvalue in the c disk."""
    disk = disk_beta(params, r3)

    def g(c):
        return gamma0_beta(c, params, profile=profile)

    def g_ref(c):
        return gamma_ref_beta(c, params)

    report = find_root_certified(g, disk, tol=tol, init_samples=init_samples,
                                 g_ref=g_ref)
    report.variable = "c"
    return report
