"""Background shear/magnetic profile and its structural conditions.

Ships the exponential Hartmann pair U_s = 1 - e^{-Y}, H_s = h_inf - e^{-Y}.
``Profile`` is an interface so alternative profiles satisfying the same
monotonicity and strong-concavity conditions can be plugged in; closed-form
primitives for the near-critical-layer integrals are optional methods that
the slow-mode evaluators use when present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation, UnsupportedOrder

__all__ = [
    "Profile",
    "HartmannProfile",
    "StructureConstants",
    "StructureReport",
    "check_structure",
    "DEFAULT_PROFILE",
]


class Profile:
    """Interface: U_s with three derivatives, H_s with two, far fields (1, h_inf)."""

    u_inf = 1.0
    h_inf = 1.0
    max_order = {"U": 3, "H": 2}

    def eval(self, which, order, Y):
        raise NotImplementedError

    def wake(self, Y):
        """u_inf - U_s(Y), overridden where an exact tail form exists: the
        plain subtraction loses all relative accuracy once U_s is within one
        ulp of u_inf, and exponentially weighted norms amplify that noise."""
        return self.u_inf - self.eval("U", 0, Y)

    # Optional closed-form hooks used by the slow-mode evaluators when present:
    #   inv_square_integral(Y, c_hat) = int_1^Y (U_s - c_hat)^{-2} dX
    #   corrector_integral(Y, c_hat)  = int_0^Y U_s' (U_s - c_hat)
    #                                     * inv_square_integral(X, c_hat) dX


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


class HartmannProfile(Profile):
    """U_s(Y) = 1 - e^{-Y}, H_s(Y) = h_inf - e^{-Y}."""

    def __init__(self, h_inf=1.0):
        self.h_inf = float(h_inf)

    def eval(self, which, order, Y):
        Y = np.asarray(Y, dtype=float)
        if which not in ("U", "H"):
            raise ValueError(f"unknown field {which!r}")
        if order < 0 or order > self.max_order[which]:
            raise UnsupportedOrder(f"{which} derivative order {order}")
        e = np.exp(-Y)
        if order == 0:
            base = 1.0 if which == "U" else self.h_inf
            return base - e
        # d^k/dY^k (-e^{-Y}) = (-1)^{k+1} e^{-Y}
        return (-1.0) ** (order + 1) * e

    def wake(self, Y):
        return np.exp(-np.asarray(Y, dtype=float))

    # -- closed-form primitives (exact completions of the integration-by-parts
    #    representation of the inverse-square critical-layer integral) --

    def _inv_square_primitive(self, Y, c_hat):
        # F'(Y) = (U_s - c_hat)^{-2}; principal log is continuous along the
        # real-Y path because Im(U_s - c_hat) = -Im c_hat is constant.
        Y = np.asarray(Y, dtype=float)
        b = 1.0 - c_hat
        w = (1.0 - np.exp(-Y)) - c_hat
        return Y / b**2 + np.log(w) / b**2 - 1.0 / (b * w)

    def inv_square_integral(self, Y, c_hat):
        return self._inv_square_primitive(Y, c_hat) - self._inv_square_primitive(1.0, c_hat)

    def corrector_integral(self, Y, c_hat):
        Y = np.asarray(Y, dtype=float)
        b = 1.0 - c_hat
        e = np.exp(-Y)

        def big_g(Yv, ev):
            w = (1.0 - ev) - c_hat
            return (Yv * w**2 / (2.0 * b**2)
                    - (b**2 * Yv + 2.0 * b * ev - ev**2 / 2.0) / (2.0 * b**2)
                    + w**2 * np.log(w) / (2.0 * b**2)
                    - w**2 / (4.0 * b**2)
                    - (1.0 - ev) / b)

        w = (1.0 - e) - c_hat
        f1 = self._inv_square_primitive(1.0, c_hat)
        return (big_g(Y, e) - big_g(0.0, 1.0)) - f1 * (w**2 - c_hat**2) / 2.0


def check_structure(profile, consts=StructureConstants(), y_max=40.0, n=2001):
    """Verify the monotonicity envelope and strong-concavity inequalities on a grid.

    Returns the worst margins (nonnegative = satisfied); raises
    StructureViolation naming the failing inequality and its location.
    """
    if n < 100:
        raise ValueError("need at least 100 grid points")
    Y = np.linspace(0.0, y_max, n)
    du = profile.eval("U", 1, Y)
    d2u = profile.eval("U", 2, Y)
    d3u = profile.eval("U", 3, Y)
    dh = profile.eval("H", 1, Y)
    d2h = profile.eval("H", 2, Y)
    env = np.exp(-consts.s0 * Y)
    margins = {
        "monotone_lower": du - consts.s1 * env,
        "monotone_upper": consts.s2 * env - du,
        "concavity": -consts.sigma0 * d2u - du**2,
        "ratio_d3u_d2u": consts.sigma0 - np.abs(d3u / d2u),
        "ratio_d2u_du": consts.sigma0 - np.abs(d2u / du),
        "ratio_d2h_du": consts.sigma0 - np.abs(d2h / du),
        "ratio_dh_du": consts.sigma0 - np.abs(dh / du),
        "ratio_wake_du": consts.sigma0 - np.abs(profile.wake(Y) / du),
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
