"""Inviscid (Rayleigh) approximate mode and its error terms.

Builds the two critical-layer solutions psi_{0,1} = U_s - c_hat and
psi_{0,2} = (U_s - c_hat) * J(Y) with J(Y) the inverse-square integral from
Y = 1, the wavenumber-corrected pair psi_{alpha,j} = e^{-alpha Y} psi_{0,j},
the corrector Phi_1^s, and the combined slow mode
Phi_app^s = psi_{alpha,1} + alpha Phi_1^s, all with derivatives up to order 3
in closed form from the primitives of the Hartmann profile.

One pass, ``_slow_pass``, builds the arrays that the program reads on a
grid: Phi_app^s to order 3, psi_{0,1} and the cancelled form of
dY Phi_1^s + alpha Phi_1^s.  It reads the profile arrays it is given and
the running integrals J, K and L of one closed-form evaluation,
``_closed_forms_at``, and keeps nothing.  The error-term assembly makes one
pass from its ``DiscreteBVP``'s profile arrays and hands both to the error
terms ``slow_errors``; ``phi_app_s`` and the ModeFunction view
``phi_app_s_mode`` read a pass of their own, on profile arrays of their Y.
Their ``params`` is a block, a tuple of SpectralParams that differ only in
c, and each array has a row per point; a row has the bits of a block of its
point alone.  The tests hold the pass bit for bit to the order-by-order formulas
and J, K and L to quadrature (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedOrder
from .numerics import pointwise
from .params import ModeFunction
from .profile import DEFAULT_PROFILE, profile_arrays

__all__ = [
    "phi_app_s",
    "phi_app_s_mode",
    "boundary_values",
    "rayleigh_residual_form",
    "slow_errors",
]


def _closed_forms_at(Y, chat):
    """(J, K, L) at these Y from the profile's closed-form primitives, a row
    per value of the tuple ``chat``."""
    return DEFAULT_PROFILE.critical_layer_integrals(Y, chat)


class _SlowPass(NamedTuple):
    """The slow-mode arrays of one grid and block of wave speeds that the
    error terms read, each with a row per point."""

    psi1: np.ndarray    # psi_{0,1} = U_s - c_hat
    phi_app: tuple      # Phi_app^s, orders 0..3
    combo: np.ndarray   # dY Phi_1^s + alpha Phi_1^s, cancelled


def _slow_pass(Y, prof, params):
    """The slow-mode arrays at these Y in one pass, a row per point of the
    block ``params``, from ``prof``, the profile arrays at Y.

    The derivative formulas of Phi_1^s keep the two running integrals
    intact; the Wronskian psi_{0,1} psi_{0,2}' - psi_{0,2} psi_{0,1}' = 1
    collapses the leftover products into the explicit e^{-alpha Y}
    correction terms of orders 2 and 3.  The combination
    dY Phi_1^s + alpha Phi_1^s is formed as -2 psi_{0,1}' e^{-alpha Y} K
    - 2 psi_{0,2}' e^{-alpha Y} L: adding the two orders of Phi_1^s
    cancels their alpha-shifted pieces only to roundoff, which exponentially
    weighted tail norms amplify, while this form decays like the shear.
    """
    Y = np.asarray(Y, dtype=float)
    chat = tuple(p.c_hat for p in params)
    a = params[0].alpha
    J, K, L = _closed_forms_at(Y, chat)
    w = prof.us - pointwise(complex, chat)
    du, d2u = prof.dus, prof.d2us
    d3u = du                    # U_s^{(3)} = U_s' = e^{-Y}
    psi1 = (w, du + 0.0j, d2u + 0.0j, d3u + 0.0j)
    # psi_{0,2} = w J with J' = 1 / w^2
    psi2 = (w * J, du * J + 1.0 / w, d2u * J, d3u * J + d2u / w**2)
    del J

    def shifted(psi, order):
        """(d/dY - alpha)^order psi_{0,j} from its derivatives ``psi``."""
        out = 0.0
        for m in range(order + 1):
            out = out + math.comb(order, m) * (-a) ** (order - m) * psi[m]
        return out

    ea = np.exp(-a * Y)
    phi_app = []
    for order in range(4):
        s1 = shifted(psi1, order)
        # Phi_1^s of this order
        p = -2.0 * s1 * ea * K - 2.0 * shifted(psi2, order) * ea * L
        if order == 2:
            p = p + 2.0 * du * ea
        elif order == 3:
            p = p + (2.0 * d2u - 6.0 * a * du) * ea
        phi_app.append(ea * s1 + a * p)
    combo = -2.0 * psi1[1] * ea * K - 2.0 * psi2[1] * ea * L
    return _SlowPass(w, tuple(phi_app), combo)


def phi_app_s(order, Y, params):
    """Slow mode psi_{alpha,1} + alpha Phi_1^s and derivatives up to order 3."""
    if order < 0 or order > 3:
        raise UnsupportedOrder(f"phi_app_s order {order}")
    Y = np.asarray(Y, dtype=float)
    return _slow_pass(Y, profile_arrays(Y), params).phi_app[order]


def phi_app_s_mode(params):
    """The slow mode at the wave speed of ``params`` as a ModeFunction; each
    order is row 0 of a slow-mode pass of the block of one."""
    return ModeFunction(max_order=3,
                        evaluator=lambda order, Y: phi_app_s(order, Y, (params,))[0])


def boundary_values(params, c_hat=None):
    """(Phi_app^s(0), dY Phi_app^s(0)) from the closed boundary formulas, as
    arrays: at each entry of ``c_hat``, an array of shifted wave speeds, or
    at ``params.c_hat`` as an array of one.  Each entry has the bits of its
    own evaluation.
    """
    chat = np.atleast_1d(np.asarray(params.c_hat if c_hat is None else c_hat,
                                    dtype=complex))
    a = params.alpha
    j0 = DEFAULT_PROFILE.inv_square_integral(0.0, chat)
    psi02_0 = -chat * j0
    dpsi02_0 = j0 - 1.0 / chat
    phi0 = -chat - a * psi02_0 * (1.0 - 2.0 * chat)
    dphi0 = 1.0 + a * chat + a * (1.0 - 2.0 * chat) * (a * psi02_0 - dpsi02_0)
    return phi0, dphi0


def rayleigh_residual_form(slow, alpha):
    """Closed form -2 alpha^2 (U_s - c_hat)(dY Phi_1^s + alpha Phi_1^s) from
    the slow-mode pass ``slow``."""
    return -2.0 * alpha**2 * slow.psi1 * slow.combo


def slow_errors(group, prof, params, psi, slow):
    """Slow-mode error terms: group 1 and 2 are the divergence/tangential
    parts, group 3 carries the strongly decaying remainder.

    ``prof`` holds the profile arrays on a grid and ``psi`` the magnetic
    slow mode Psi_app^s there by derivative order (to order 1), with a row
    per point of the block ``params``; the velocity slow mode is read from
    ``slow``, the slow-mode pass of the grid.
    """
    if group not in (1, 2, 3):
        raise ValueError("group must be 1, 2 or 3")
    p = params[0]
    a, n, se = p.alpha, p.n, p.sqrt_eps
    c = pointwise(lambda q: q.c, params)
    hs = prof.hs
    phi = slow.phi_app

    if group == 1:
        us = prof.us
        return ((1j / n) * (phi[3] - 2.0 * a**2 * phi[1])
                - se * hs * psi[1]
                - (a / n) * ((us - c) * psi[0] - hs * phi[0]))
    if group == 2:
        return ((a**3 / n) * phi[0]
                - 1j * a * se * hs * psi[0]
                - (a / n) * phi[0])
    return (rayleigh_residual_form(slow, a)
            + se * prof.dhs * psi[1]
            + se * prof.d2hs * psi[0])
