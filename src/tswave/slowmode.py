"""Inviscid (Rayleigh) approximate mode and its error terms.

Builds the two critical-layer solutions psi_{0,1} = U_s - c_hat and
psi_{0,2} = (U_s - c_hat) * J(Y) with J(Y) the inverse-square integral from
Y = 1, the wavenumber-corrected pair psi_{alpha,j} = e^{-alpha Y} psi_{0,j},
the corrector Phi_1^s, and the combined slow mode
Phi_app^s = psi_{alpha,1} + alpha Phi_1^s, all with derivatives up to order 3
in closed form from the primitives of the Hartmann profile.  The running
integrals J, K and L come from those closed forms, cached per (grid, c_hat);
the tests check them against quadrature (``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedOrder
from .numerics import grid_cache
from .params import ModeFunction
from .profile import DEFAULT_PROFILE

__all__ = [
    "psi0",
    "corrector_integrals",
    "phi1s",
    "phi_app_s",
    "phi_app_s_mode",
    "boundary_values",
    "rayleigh_residual_form",
    "damped_corrector_combo",
    "slow_errors",
]


def _closed_forms_at(Y, chat):
    """(J, K, L) at these Y, from ``_closed_forms``; a scalar Y gives scalars."""
    out = _closed_forms(Y, complex(chat))
    return out if np.ndim(Y) else tuple(v[()] for v in out)


@grid_cache(maxsize=4)
def _closed_forms(Y, chat):
    """J(Y), K(Y) and L(Y) of one (grid, c_hat) from the profile's closed-form
    primitives."""
    J = np.asarray(DEFAULT_PROFILE.inv_square_integral(Y, chat))
    K = np.asarray(DEFAULT_PROFILE.corrector_integral(Y, chat))
    w = DEFAULT_PROFILE.eval("U", 0, Y) - chat
    b = DEFAULT_PROFILE.u_inf - chat
    # b^2 - w^2 written through the wake; the direct difference bottoms
    # out at one ulp once U_s saturates, which exponential weights amplify
    L = np.asarray(DEFAULT_PROFILE.wake(Y) * (b + w) / 2.0)
    return J, K, L


def psi0(j, order, Y, params):
    """psi_{0,j} and derivatives, j = 1 (regular) or 2 (critical-layer) solution.

    psi_{0,2} = (U_s - c_hat) J with J(Y) = int_1^Y (U_s - c_hat)^{-2} dX.
    """
    if order < 0 or order > 3:
        raise UnsupportedOrder(f"psi0 order {order}")
    Y = np.asarray(Y, dtype=float)
    chat = params.c_hat
    if j == 1:
        if order == 0:
            return DEFAULT_PROFILE.eval("U", 0, Y) - chat
        return DEFAULT_PROFILE.eval("U", order, Y) + 0.0j
    if j != 2:
        raise ValueError("j must be 1 or 2")
    J = _closed_forms_at(Y, chat)[0]
    w = DEFAULT_PROFILE.eval("U", 0, Y) - chat
    if order == 0:
        return w * J
    du = DEFAULT_PROFILE.eval("U", 1, Y)
    if order == 1:
        return du * J + 1.0 / w
    d2u = DEFAULT_PROFILE.eval("U", 2, Y)
    if order == 2:
        return d2u * J
    d3u = DEFAULT_PROFILE.eval("U", 3, Y)
    return d3u * J + d2u / w**2


def corrector_integrals(Y, params):
    """Running integrals (K, L) of the corrector:

    K(Y) = int_0^Y U_s' psi_{0,2},  L(Y) = int_Y^inf U_s' psi_{0,1}.
    """
    _, K, L = _closed_forms_at(np.atleast_1d(np.asarray(Y, dtype=float)), params.c_hat)
    if np.isscalar(Y):
        return complex(np.atleast_1d(K)[0]), complex(np.atleast_1d(L)[0])
    return K, L


def _shifted_derivative(j, order, Y, params):
    """(d/dY - alpha)^order applied to psi_{0,j}."""
    a = params.alpha
    out = 0.0
    for m in range(order + 1):
        out = out + math.comb(order, m) * (-a) ** (order - m) * psi0(j, m, Y, params)
    return out


def phi1s(order, Y, params):
    """Corrector Phi_1^s and derivatives up to order 3.

    The derivative formulas keep the two running integrals intact; the
    Wronskian psi_{0,1} psi_{0,2}' - psi_{0,2} psi_{0,1}' = 1 collapses the
    leftover products into the explicit e^{-alpha Y} correction terms.
    """
    if order < 0 or order > 3:
        raise UnsupportedOrder(f"phi1s order {order}")
    Yarr = np.asarray(Y, dtype=float)
    a = params.alpha
    K, L = corrector_integrals(Yarr, params)
    ea = np.exp(-a * Yarr)
    p = (-2.0 * _shifted_derivative(1, order, Yarr, params) * ea * K
         - 2.0 * _shifted_derivative(2, order, Yarr, params) * ea * L)
    if order <= 1:
        return p
    du = DEFAULT_PROFILE.eval("U", 1, Yarr)
    if order == 2:
        return p + 2.0 * du * ea
    d2u = DEFAULT_PROFILE.eval("U", 2, Yarr)
    return p + (2.0 * d2u - 6.0 * a * du) * ea


def phi_app_s(order, Y, params):
    """Slow mode psi_{alpha,1} + alpha Phi_1^s and derivatives up to order 3."""
    Yarr = np.asarray(Y, dtype=float)
    ea = np.exp(-params.alpha * Yarr)
    base = ea * _shifted_derivative(1, order, Yarr, params)
    return base + params.alpha * phi1s(order, Yarr, params)


def phi_app_s_mode(params):
    """The slow mode as a ModeFunction; each (order, Y) is evaluated once
    among the eight most recent."""
    memo = grid_cache(maxsize=8)(lambda Y, order: phi_app_s(order, Y, params))
    return ModeFunction(max_order=3, evaluator=lambda order, Y: memo(Y, order))


def boundary_values(params, c_hat=None):
    """(Phi_app^s(0), dY Phi_app^s(0)) from the closed boundary formulas.

    ``c_hat`` replaces ``params.c_hat`` by an array of shifted wave speeds,
    and the two values come back as arrays.  A scalar call runs the same
    array arithmetic on one point, so it equals that entry of an array call.
    """
    scalar = c_hat is None
    chat = np.atleast_1d(np.asarray(params.c_hat if scalar else c_hat, dtype=complex))
    a = params.alpha
    j0 = DEFAULT_PROFILE.inv_square_integral(0.0, chat)
    psi02_0 = -chat * j0
    dpsi02_0 = j0 - 1.0 / chat
    phi0 = -chat - a * psi02_0 * (1.0 - 2.0 * chat)
    dphi0 = 1.0 + a * chat + a * (1.0 - 2.0 * chat) * (a * psi02_0 - dpsi02_0)
    if scalar:
        return complex(phi0[0]), complex(dphi0[0])
    return phi0, dphi0


def damped_corrector_combo(Y, params):
    """dY Phi_1^s + alpha Phi_1^s in its cancelled form
    -2 psi_{0,1}' e^{-alpha Y} K - 2 psi_{0,2}' e^{-alpha Y} L.

    Adding phi1s(1) and alpha*phi1s(0) separately cancels the alpha-shifted
    pieces only to roundoff, and exponentially weighted tail norms amplify
    that noise; this form decays like the shear itself.
    """
    Yarr = np.asarray(Y, dtype=float)
    K, L = corrector_integrals(Yarr, params)
    ea = np.exp(-params.alpha * Yarr)
    return (-2.0 * psi0(1, 1, Yarr, params) * ea * K
            - 2.0 * psi0(2, 1, Yarr, params) * ea * L)


def rayleigh_residual_form(Y, params):
    """Closed form -2 alpha^2 (U_s - c_hat)(dY Phi_1^s + alpha Phi_1^s)."""
    Yarr = np.asarray(Y, dtype=float)
    w = DEFAULT_PROFILE.eval("U", 0, Yarr) - params.c_hat
    return -2.0 * params.alpha**2 * w * damped_corrector_combo(Yarr, params)


def slow_errors(group, Y, params, psi_app_s, phi_mode):
    """Slow-mode error terms: group 1 and 2 are the divergence/tangential
    parts, group 3 carries the strongly decaying remainder.

    ``psi_app_s`` is the magnetic slow mode (order >= 1) and ``phi_mode`` the
    velocity slow mode, ``phi_app_s_mode(params)``.
    """
    if group not in (1, 2, 3):
        raise ValueError("group must be 1, 2 or 3")
    Yarr = np.asarray(Y, dtype=float)
    a = params.alpha
    n = params.n
    se = params.sqrt_eps
    c = params.c
    hs = DEFAULT_PROFILE.eval("H", 0, Yarr)

    def phi(order):
        return phi_mode.eval(order, Yarr)

    if group == 1:
        us = DEFAULT_PROFILE.eval("U", 0, Yarr)
        return ((1j / n) * (phi(3) - 2.0 * a**2 * phi(1))
                - se * hs * psi_app_s.eval(1, Yarr)
                - (a / n) * ((us - c) * psi_app_s.eval(0, Yarr) - hs * phi(0)))
    if group == 2:
        return ((a**3 / n) * phi(0)
                - 1j * a * se * hs * psi_app_s.eval(0, Yarr)
                - (a / n) * phi(0))
    dhs = DEFAULT_PROFILE.eval("H", 1, Yarr)
    d2hs = DEFAULT_PROFILE.eval("H", 2, Yarr)
    return (rayleigh_residual_form(Yarr, params)
            + se * dhs * psi_app_s.eval(1, Yarr)
            + se * d2hs * psi_app_s.eval(0, Yarr))
