"""Spectral parameter bundle and evaluable mode functions.

``SpectralParams`` couples (eps, amplitude, beta) to the derived wavenumber
alpha = amplitude * eps^beta, the rescaled frequency n = alpha / sqrt(eps),
the shifted wave speed c_hat = c + i/n, and the regime bookkeeping
nu0 = (1 - 8 beta)/(4 beta).  Instances are immutable; root finders walk the
wave speed with ``with_c``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import RegimeMismatch, UnsupportedOrder

__all__ = ["SpectralParams", "ModeFunction", "GUARDS", "BETA_EIGHTH"]

BETA_EIGHTH = 0.125
BETA_FLOOR = 3.0 / 28.0

# Non-constructive admissibility radii exposed as soft guards; violations are
# reported, runtime detectors (NonContraction etc.) remain the hard check.
GUARDS = {
    "gamma2": 0.25,       # validity radius |c_hat| for the boundary expansions
    "alpha0": 0.5,        # magnetic-solver wavenumber ceiling
    "gamma0": 0.5,        # magnetic-solver wave-speed radius
}


@dataclass(frozen=True)
class SpectralParams:
    eps: float
    amplitude: float
    beta: float = BETA_EIGHTH
    c: complex | None = None
    theta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be positive and finite, got "
                             f"{self.amplitude}")
        if not BETA_FLOOR < self.beta <= BETA_EIGHTH:
            raise ValueError(f"beta must lie in (3/28, 1/8], got {self.beta}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.c is not None and (self.c.imag + 1.0 / self.n) <= 0.0:
            raise ValueError(f"Im c_hat must be positive, got c = {self.c}")

    # -- construction helpers --

    @classmethod
    def eighth(cls, amplitude, eps, c=None, theta=0.5):
        """alpha = A eps^{1/8} regime."""
        return cls(eps=eps, amplitude=amplitude, beta=BETA_EIGHTH, c=c, theta=theta)

    @classmethod
    def beta_regime(cls, amplitude, beta, eps, c=None, theta=0.5):
        """alpha = M eps^beta with beta in (3/28, 1/8)."""
        if beta >= BETA_EIGHTH:
            raise ValueError("beta regime requires beta < 1/8")
        return cls(eps=eps, amplitude=amplitude, beta=beta, c=c, theta=theta)

    def with_c(self, c):
        return replace(self, c=complex(c))

    # -- derived quantities --

    @property
    def alpha(self):
        return self.amplitude * self.eps ** self.beta

    @property
    def sqrt_eps(self):
        return math.sqrt(self.eps)

    @property
    def n(self):
        return self.alpha / self.sqrt_eps

    @property
    def far_field(self):
        """Default far end of the sub-layer and magnetic grids, max(40, 8/alpha)."""
        return max(40.0, 8.0 / self.alpha)

    @property
    def is_eighth(self):
        return self.beta == BETA_EIGHTH

    @property
    def nu0(self):
        return (1.0 - 8.0 * self.beta) / (4.0 * self.beta)

    @property
    def c_hat(self):
        self._need_c()
        return self.c + 1j / self.n

    @property
    def delta(self):
        """Sub-layer scale e^{-i pi/6} n^{-1/3}."""
        return cmath.exp(-1j * math.pi / 6.0) * self.n ** (-1.0 / 3.0)

    @property
    def z0(self):
        """Scaled critical-layer offset e^{-5i pi/6} n^{1/3} c_hat, formed as
        ``z0_at`` forms it for an array: the scalar product can round one ulp
        away from it."""
        return complex(self.z0_at(np.array([self.c_hat]))[0])

    def z0_at(self, c_hat):
        """The offset z0 of a given c_hat, a scalar or an array."""
        return cmath.exp(-5j * math.pi / 6.0) * self.n ** (1.0 / 3.0) * c_hat

    @property
    def varpi(self):
        """(-i n c)^{1/2} with positive real part (exponential fast-mode rate)."""
        if self.is_eighth:
            raise RegimeMismatch("varpi is defined in the beta regime only")
        self._need_c()
        w = cmath.sqrt(-1j * self.n * self.c)
        return -w if w.real < 0.0 else w

    def chat_to_c(self, chat):
        return chat - 1j / self.n

    def _need_c(self):
        if self.c is None:
            raise ValueError("wave speed c is not set; use with_c")

    def guard_warnings(self):
        """Soft admissibility warnings (expansions/solvers used outside their
        proven radii still run; hard failures surface as runtime errors)."""
        out = []
        if self.c is not None:
            if abs(self.c_hat) > GUARDS["gamma2"]:
                out.append(f"|c_hat| = {abs(self.c_hat):.4f} exceeds gamma2 = "
                           f"{GUARDS['gamma2']} (boundary expansions degrade)")
            if abs(self.c) > GUARDS["gamma0"]:
                out.append(f"|c| = {abs(self.c):.4f} exceeds gamma0 = {GUARDS['gamma0']}")
        if self.alpha > GUARDS["alpha0"]:
            out.append(f"alpha = {self.alpha:.4f} exceeds alpha0 = {GUARDS['alpha0']}")
        return out


@dataclass
class ModeFunction:
    """Complex-valued function of Y >= 0 with derivatives up to ``max_order``."""

    max_order: int
    evaluator: Callable

    def eval(self, order, Y):
        if order < 0 or order > self.max_order:
            raise UnsupportedOrder(f"order {order} > max_order {self.max_order}")
        scalar = np.isscalar(Y) or np.asarray(Y).ndim == 0
        out = self.evaluator(order, np.atleast_1d(np.asarray(Y, dtype=float)))
        out = np.asarray(out, dtype=complex)
        return complex(out[0]) if scalar else out

    def __call__(self, Y):
        return self.eval(0, Y)
