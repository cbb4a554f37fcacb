"""Background shear/magnetic profile and its structural conditions.

The Hartmann pair U_s = 1 - e^{-Y}, H_s = h_inf - e^{-Y} is the one
background of the growing mode; the numerical modules read
``DEFAULT_PROFILE``.  It carries the closed-form primitives of the
near-critical-layer integrals: ``critical_layer_integrals`` gives the slow
mode's running integrals J, K and L from one e^{-Y} and one logarithm.
``profile_arrays`` samples U_s, H_s and their first two derivatives on a
grid from one e^{-Y}; a ``DiscreteBVP`` keeps those of its grid and hands
them to the modules that read them there.
``check_structure`` verifies the monotonicity and strong-concavity
conditions of ``DEFAULT_PROFILE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructureViolation, UnsupportedOrder

__all__ = [
    "HartmannProfile",
    "StructureConstants",
    "StructureReport",
    "check_structure",
    "DEFAULT_PROFILE",
    "ProfileArrays",
    "profile_arrays",
]


@dataclass(frozen=True)
class StructureConstants:
    """Envelope and concavity constants of the structural conditions."""

    s0: float = 1.0
    s1: float = 1.0
    s2: float = 1.0
    sigma0: float = 1.0

    def __post_init__(self):
        if min(self.s0, self.s1, self.s2, self.sigma0) <= 0.0:
            raise ValueError("structure constants must be positive")
        if self.s1 > self.s2:
            raise ValueError("need s1 <= s2")


@dataclass
class StructureReport:
    margins: dict
    worst: tuple

    @property
    def ok(self):
        return self.worst[1] >= -1e-12


class _ChatScalars(NamedTuple):
    """The scalars of one c_hat in the critical-layer integrals, b = u_inf -
    c_hat: F(1) the primitive of w^{-2} at Y = 1 and G(0) the primitive of
    U_s' w F at Y = 0.  For a block, each is a (k, 1) column."""

    chat: complex
    chat2: complex
    b: complex
    b2: complex
    two_b: complex
    two_b2: complex
    four_b2: complex
    f1: complex
    g0: complex


class HartmannProfile:
    """U_s(Y) = 1 - e^{-Y} with three derivatives, H_s(Y) = h_inf - e^{-Y}
    with two; far fields (1, h_inf)."""

    u_inf = 1.0
    max_order = {"U": 3, "H": 2}

    def __init__(self, h_inf=1.0):
        self.h_inf = float(h_inf)

    def eval(self, which, order, Y):
        if which not in ("U", "H"):
            raise ValueError(f"unknown field {which!r}")
        if order < 0 or order > self.max_order[which]:
            raise UnsupportedOrder(f"{which} derivative order {order}")
        return self._field(which, order, np.exp(-np.asarray(Y, dtype=float)))

    def _field(self, which, order, e):
        """``eval`` of the field at the Y where e = e^{-Y}."""
        if order == 0:
            base = 1.0 if which == "U" else self.h_inf
            return base - e
        # d^k/dY^k (-e^{-Y}) = (-1)^{k+1} e^{-Y}
        return (-1.0) ** (order + 1) * e

    def wake(self, Y):
        """u_inf - U_s(Y) in its exact tail form: the plain subtraction loses
        all relative accuracy once U_s is within one ulp of u_inf, and
        exponentially weighted norms amplify that noise."""
        return np.exp(-np.asarray(Y, dtype=float))

    # -- closed-form primitives (exact completions of the integration-by-parts
    #    representation of the inverse-square critical-layer integral) --

    @staticmethod
    def _inv_square_primitive(Y, b, b2, w, log_w):
        # F'(Y) = (U_s - c_hat)^{-2} from w = U_s - c_hat, log w,
        # b = u_inf - c_hat and b2 = b^2; principal log is continuous along
        # the real-Y path because Im(U_s - c_hat) = -Im c_hat is constant.
        return Y / b2 + log_w / b2 - 1.0 / (b * w)

    def _inv_square_at(self, Y, c_hat):
        Y = np.asarray(Y, dtype=float)
        w = (1.0 - np.exp(-Y)) - c_hat
        b = 1.0 - c_hat
        return self._inv_square_primitive(Y, b, b**2, w, np.log(w))

    def inv_square_integral(self, Y, c_hat):
        """int_1^Y (U_s - c_hat)^{-2} dX."""
        return self._inv_square_at(Y, c_hat) - self._inv_square_at(1.0, c_hat)

    @staticmethod
    def _big_g(Y, e, w2, log_w, s):
        """A primitive of U_s' w F(Y), F the primitive of w^{-2}, at the Y
        where e = e^{-Y}, from w^2, log w and the ``_ChatScalars`` s."""
        return (Y * w2 / s.two_b2
                - (s.b2 * Y + s.two_b * e - e**2 / 2.0) / s.two_b2
                + w2 * log_w / s.two_b2
                - w2 / s.four_b2
                - (1.0 - e) / s.b)

    def _chat_scalars(self, c_hat):
        """The ``_ChatScalars`` of one c_hat, each formed from Python scalars
        as for a single c_hat."""
        b = 1.0 - c_hat
        s = _ChatScalars(c_hat, c_hat**2, b, b**2, 2.0 * b, 2.0 * b**2, 4.0 * b**2,
                         self._inv_square_at(1.0, c_hat), None)
        w0 = (1.0 - 1.0) - c_hat
        return s._replace(g0=self._big_g(0.0, 1.0, w0**2, np.log(w0), s))

    def critical_layer_integrals(self, Y, c_hat):
        """The running integrals (J, K, L) at Y from one e^{-Y} and one log w,
        w = U_s - c_hat:

        J(Y) = int_1^Y w^{-2} dX,  K(Y) = int_0^Y U_s' w J dX,
        L(Y) = int_Y^inf U_s' w dX.

        ``c_hat`` is a tuple of values, one per point of a block, and each
        integral comes back with a leading point axis.  The scalars of each
        c_hat are formed on their own and enter the grid arithmetic as
        columns, so every row has the bits of a block of its c_hat alone.
        """
        Y = np.asarray(Y, dtype=float)
        table = np.array([self._chat_scalars(ch) for ch in c_hat], dtype=complex)
        s = _ChatScalars(*table.T[:, :, None])
        e = np.exp(-Y)
        w = (1.0 - e) - s.chat
        log_w = np.log(w)
        J = self._inv_square_primitive(Y, s.b, s.b2, w, log_w) - s.f1
        w2 = w**2
        K = (self._big_g(Y, e, w2, log_w, s) - s.g0) - s.f1 * (w2 - s.chat2) / 2.0
        # (b^2 - w^2) / 2 written through the wake e^{-Y} = b - w; the direct
        # difference bottoms out at one ulp once U_s saturates, which
        # exponential weights amplify
        L = e * (s.b + w) / 2.0
        return J, K, L


def check_structure(consts=StructureConstants()):
    """Verify the monotonicity envelope and strong-concavity inequalities of
    ``DEFAULT_PROFILE`` on 2001 points of [0, 40].

    Returns the worst margins (nonnegative = satisfied); raises
    StructureViolation naming the failing inequality and its location.
    """
    Y = np.linspace(0.0, 40.0, 2001)
    du = DEFAULT_PROFILE.eval("U", 1, Y)
    d2u = DEFAULT_PROFILE.eval("U", 2, Y)
    d3u = DEFAULT_PROFILE.eval("U", 3, Y)
    dh = DEFAULT_PROFILE.eval("H", 1, Y)
    d2h = DEFAULT_PROFILE.eval("H", 2, Y)
    env = np.exp(-consts.s0 * Y)
    margins = {
        "monotone_lower": du - consts.s1 * env,
        "monotone_upper": consts.s2 * env - du,
        "concavity": -consts.sigma0 * d2u - du**2,
        "ratio_d3u_d2u": consts.sigma0 - np.abs(d3u / d2u),
        "ratio_d2u_du": consts.sigma0 - np.abs(d2u / du),
        "ratio_d2h_du": consts.sigma0 - np.abs(d2h / du),
        "ratio_dh_du": consts.sigma0 - np.abs(dh / du),
        "ratio_wake_du": consts.sigma0 - np.abs(DEFAULT_PROFILE.wake(Y) / du),
    }
    summary = {}
    worst = (None, np.inf, None)
    for name, m in margins.items():
        i = int(np.argmin(m))
        summary[name] = (float(m[i]), float(Y[i]))
        if m[i] < worst[1]:
            worst = (name, float(m[i]), float(Y[i]))
    report = StructureReport(margins=summary, worst=worst)
    if not report.ok:
        raise StructureViolation(
            f"{worst[0]} fails by {worst[1]:.3e} at Y = {worst[2]:.4f}")
    return report


DEFAULT_PROFILE = HartmannProfile()


class ProfileArrays(NamedTuple):
    """U_s and H_s with two derivatives each, sampled on one grid."""

    us: np.ndarray
    dus: np.ndarray
    d2us: np.ndarray
    hs: np.ndarray
    dhs: np.ndarray
    d2hs: np.ndarray

    @property
    def wake(self):
        """u_inf - U_s in its exact tail form e^{-Y}, which is U_s'."""
        return self.dus


def profile_arrays(grid):
    """The ``ProfileArrays`` of ``DEFAULT_PROFILE`` on one grid, from one
    e^{-Y}; each array has the bits of its ``DEFAULT_PROFILE.eval``."""
    e = np.exp(-grid)
    return ProfileArrays(*(DEFAULT_PROFILE._field(which, k, e)
                           for which in ("U", "H") for k in range(3)))
