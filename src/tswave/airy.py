"""The Airy function Ai and its first three primitives on the sector |arg z| <= 5pi/6.

Evaluation strategy: Maclaurin series below ``M_THRESHOLD``, leading
asymptotic term at or above it.  The primitive values at z = 0 are computed
once by quadrature over the defining complex contour (two rays at arg
+-2pi/3 joined by the unit-circle arc through -1) and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SectorViolation, UnsupportedOrder
from .numerics import Ray, Segment, quad_segment

__all__ = [
    "M_THRESHOLD",
    "SECTOR",
    "AI_ZERO",
    "AIP_ZERO",
    "AiryBranch",
    "AiryValue",
    "ai_k",
    "ai_asymptotic",
    "ai_contour",
    "primitive_constants",
]

M_THRESHOLD = 8.0
SECTOR = 5.0 * math.pi / 6.0

AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)     # Ai(0)
AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)


class AiryBranch(Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class AiryValue:
    k: int
    z: complex
    value: complex
    branch: AiryBranch


def _check_sector(z):
    args = np.abs(np.angle(np.atleast_1d(z)))
    if np.any(args > SECTOR + 1e-12):
        worst = np.atleast_1d(z).ravel()[int(np.argmax(args))]
        raise SectorViolation(f"|arg z| = {np.max(args):.6f} > 5pi/6 at z = {worst}")


_AIK0 = None


def primitive_constants(rel_tol=1e-12):
    """Cached primitive values Ai(k, 0), k = 0..3, from the contour integral."""
    global _AIK0
    if _AIK0 is None:
        _AIK0 = {0: AI_ZERO}
        for k in (1, 2, 3):
            _AIK0[k] = ai_contour(k, 0.0, rel_tol=rel_tol)
    return _AIK0


def ai_contour(k, z, rel_tol=1e-12):
    """Ai(k, z) by quadrature over the defining contour; test oracle and
    source of the z = 0 primitive constants.

    Accurate wherever the integrand's peak does not dwarf the result, i.e. at
    moderate |z| and in directions where Ai(k, z) is not exponentially small.
    """
    z = complex(z)

    def integrand(t):
        t = np.asarray(t, dtype=complex)
        return t ** (-k) * np.exp(z * t - t**3 / 3.0)

    up = np.exp(2j * math.pi / 3.0)
    dn = np.exp(-2j * math.pi / 3.0)
    leg_in = quad_segment(integrand, Ray(dn, dn), rel_tol=rel_tol)

    def arc(theta):
        theta = np.asarray(theta, dtype=complex)
        t = np.exp(1j * theta)
        return integrand(t) * 1j * t

    # theta runs from -2pi/3 down through -pi to -4pi/3 (= +2pi/3)
    leg_arc = -quad_segment(arc, Segment(-4.0 * math.pi / 3.0, -2.0 * math.pi / 3.0),
                            rel_tol=rel_tol)
    leg_out = quad_segment(integrand, Ray(up, up), rel_tol=rel_tol)
    # the ray quadratures already carry the complex measure; the inbound leg is
    # traversed toward the unit circle, hence the sign flip
    total = -leg_in + leg_arc + leg_out
    return total / (2j * math.pi)


def _series(k, z, tol=1e-18, max_terms=420):
    """Maclaurin evaluation of Ai(k, z) for k in {-1, 0, 1, 2, 3} (entire)."""
    z = np.asarray(z, dtype=complex)
    c1, c2 = AI_ZERO, -AIP_ZERO
    z3 = z**3
    if k == -1:
        # termwise derivative of the Ai series
        tf = c1 * z**2 / 2.0          # m = 1 term of the f-part
        tg = -c2 * np.ones_like(z)    # m = 0 term of the g-part

        def step(m, tf, tg, z3):
            return (tf * z3 / ((3 * m - 1) * (3 * m - 3)),
                    tg * z3 / ((3 * m - 3) * (3 * m - 5)))

        return _sum_terms(tf + tg, tf, tg, z3, 2, step, tol, max_terms)
    if not 0 <= k <= 3:
        raise UnsupportedOrder(f"series order k = {k}")
    acc = np.zeros_like(z)
    if k > 0:
        consts = primitive_constants()
        fact = 1.0
        for j in range(k):
            acc = acc + consts[k - j] * z**j / fact
            fact *= (j + 1)
    kfact = math.factorial(k)
    tf = c1 * z**k / kfact
    tg = -c2 * z ** (k + 1) / math.factorial(k + 1)

    def step(m, tf, tg, z3):
        return (tf * (3 * m - 2) * z3 / ((3 * m + k - 2) * (3 * m + k - 1) * (3 * m + k)),
                tg * (3 * m - 1) * z3 / ((3 * m + k - 1) * (3 * m + k) * (3 * m + k + 1)))

    return _sum_terms(acc + tf + tg, tf, tg, z3, 1, step, tol, max_terms)


def _sum_terms(acc, tf, tg, z3, m_start, step, tol, max_terms):
    """``acc`` plus the series terms m = m_start, m_start + 1, ... of the f-
    and g-parts, each pair made from the last by ``step(m, tf, tg, z3)``.

    A point leaves the working set after the first term past m = 8 whose
    modulus is below ``tol`` relative to its sum: it takes the terms it
    would take alone, so its value does not depend on the other points.
    """
    shape = acc.shape
    acc, tf, tg, z3 = (np.ravel(a) for a in (acc, tf, tg, z3))
    out = np.empty_like(acc)
    live = np.arange(acc.size)
    for m in range(m_start, max_terms):
        tf, tg = step(m, tf, tg, z3)
        acc = acc + tf + tg
        if m > 8:
            done = np.abs(tf) + np.abs(tg) <= tol * np.abs(acc)
            if done.any():
                out[live[done]] = acc[done]
                keep = ~done
                live, acc, tf, tg, z3 = live[keep], acc[keep], tf[keep], tg[keep], z3[keep]
                if not live.size:
                    break
    out[live] = acc
    return out.reshape(shape)


def _asymptotic(k, z):
    """Leading term (-1)^k/(2 sqrt(pi)) z^{-(1+2k)/4} e^{-(2/3) z^{3/2}}, principal branches."""
    z = np.asarray(z, dtype=complex)
    lz = np.log(z)
    expo = -(1.0 + 2.0 * k) / 4.0 * lz - (2.0 / 3.0) * np.exp(1.5 * lz)
    return (-1.0) ** k / (2.0 * math.sqrt(math.pi)) * np.exp(expo)


def _ai_any(k, z):
    """Branch-dispatched Ai(k, z) for k in {-2, ..., 3}; no sector check."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    big = np.abs(z) >= M_THRESHOLD
    if np.any(big):
        out[big] = _asymptotic(k, z[big])
    if np.any(~big):
        zs = z[~big]
        out[~big] = zs * _series(0, zs) if k == -2 else _series(k, zs)
    return out


def ai_k(k, z):
    """Ai(z) for k = 0, or the k-th primitive Ai(k, z) for k = 1..3.

    Series branch below |z| = M_THRESHOLD, leading asymptotic term above.
    Raises SectorViolation outside |arg z| <= 5pi/6.
    """
    if k not in (0, 1, 2, 3):
        raise UnsupportedOrder(f"k = {k} not in 0..3")
    _check_sector(z)
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    out = _ai_any(k, np.atleast_1d(np.asarray(z, dtype=complex)))
    return complex(out[0]) if scalar else out


def ai_asymptotic(k, z):
    """Leading asymptotic term only; requires |z| >= M_THRESHOLD inside the sector."""
    if k not in (0, 1, 2, 3):
        raise UnsupportedOrder(f"k = {k} not in 0..3")
    _check_sector(z)
    if np.any(np.abs(np.atleast_1d(z)) < M_THRESHOLD):
        raise ValueError(f"asymptotic branch requires |z| >= {M_THRESHOLD}")
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    out = _asymptotic(k, np.atleast_1d(np.asarray(z, dtype=complex)))
    return complex(out[0]) if scalar else out


def ai_value(k, z):
    """Ai(k, z) together with the branch used (for tabulation)."""
    val = ai_k(k, z)
    branch = AiryBranch.ASYMPTOTIC if abs(z) >= M_THRESHOLD else AiryBranch.SERIES
    return AiryValue(k=k, z=complex(z), value=complex(val), branch=branch)
