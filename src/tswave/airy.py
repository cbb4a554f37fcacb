"""The Airy function Ai and its first three primitives on the sector |arg z| <= 5pi/6.

Evaluation strategy: Maclaurin series below ``M_THRESHOLD``, leading
asymptotic term at or above it.  The primitive values at z = 0 that start the
series are closed forms (DLMF 9.10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import SectorViolation, UnsupportedOrder

__all__ = [
    "M_THRESHOLD",
    "SECTOR",
    "AI_ZERO",
    "AIP_ZERO",
    "AiryBranch",
    "AiryValue",
    "ai_k",
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
    z = np.atleast_1d(z)
    # z = 0 lies in every sector, whatever the signs of its zero parts
    args = np.where(z == 0, 0.0, np.abs(np.angle(z)))
    if np.any(args > SECTOR + 1e-12):
        worst = z.ravel()[int(np.argmax(args))]
        raise SectorViolation(f"|arg z| = {np.max(args):.6f} > 5pi/6 at z = {worst}")


def primitive_constants():
    """Ai(k, 0) for k = 0..3: (-1)^k 3^{-(k+2)/3} / Gamma((k+2)/3), the Mellin
    transform of Ai (DLMF 9.10), written through Ai(0) and Ai'(0)."""
    return {0: AI_ZERO, 1: -1.0 / 3.0, 2: -AIP_ZERO, 3: -AI_ZERO / 2.0}


def _series(k, z, tol=1e-18, max_terms=420):
    """Maclaurin evaluation of Ai(k, z) for k in {-1, 0, 1, 2, 3} (entire).

    ``k`` may be a tuple of orders in 0..3: all of them run in one loop and
    come back stacked on a leading axis, each value equal to its
    single-order evaluation.
    """
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
    orders = k if isinstance(k, tuple) else (k,)
    if not all(0 <= kk <= 3 for kk in orders):
        raise UnsupportedOrder(f"series order k = {k}")
    consts = primitive_constants()
    starts = []
    for kk in orders:
        acc = np.zeros_like(z)
        fact = 1.0
        for j in range(kk):
            acc = acc + consts[kk - j] * z**j / fact
            fact *= (j + 1)
        tf = c1 * z**kk / math.factorial(kk)
        tg = -c2 * z ** (kk + 1) / math.factorial(kk + 1)
        starts.append((acc + tf + tg, tf, tg))
    acc, tf, tg = (np.stack(a) for a in zip(*starts))
    den_f, den_g = _denominators(orders, max_terms)

    def step(m, tf, tg, z3):
        return tf * (3 * m - 2) * z3 / den_f[m], tg * (3 * m - 1) * z3 / den_g[m]

    out = _sum_terms(acc, tf, tg, z3, 1, step, tol, max_terms)
    return out if isinstance(k, tuple) else out[0]


@lru_cache(maxsize=16)
def _denominators(orders, max_terms):
    """The integer denominators of the f- and g-part steps of every m as
    complex columns (m, order, 1), so each row divides exactly as a single
    order divides by its integer; read-only."""
    j = 3 * np.arange(max_terms).reshape(-1, 1, 1) + np.reshape(orders, (-1, 1))
    den_f = (j * (j - 1) * (j - 2)).astype(complex)
    den_g = ((j + 1) * j * (j - 1)).astype(complex)
    for arr in (den_f, den_g):
        arr.flags.writeable = False
    return den_f, den_g


def _sum_terms(acc, tf, tg, z3, m_start, step, tol, max_terms):
    """``acc`` plus the series terms m = m_start, m_start + 1, ... of the f-
    and g-parts, each pair made from the last by ``step(m, tf, tg, z3)``.

    ``acc``, ``tf`` and ``tg`` are either shaped like ``z3`` or carry a
    leading axis of orders.  An element is done after the first term past
    m = 8 whose modulus is below ``tol`` relative to its sum: it takes the
    terms it would take alone, so its value depends on no other element.  A
    point leaves the working set once all its orders are done.
    """
    shape = acc.shape
    rows = acc.shape[0] if acc.ndim > z3.ndim else 1
    acc, tf, tg = (np.reshape(a, (rows, -1)) for a in (acc, tf, tg))
    # z3 repeated per order: numpy's complex multiply can round differently
    # when an operand is broadcast, and each row must round as one order does
    z3 = np.tile(np.ravel(z3), (rows, 1))
    out = np.empty_like(acc)
    open_ = np.ones(acc.shape, dtype=bool)
    live = np.arange(acc.shape[1])
    for m in range(m_start, max_terms):
        tf, tg = step(m, tf, tg, z3)
        acc = acc + tf + tg
        if m > 8:
            done = open_ & (np.abs(tf) + np.abs(tg) <= tol * np.abs(acc))
            if done.any():
                r, c = np.nonzero(done)
                out[r, live[c]] = acc[r, c]
                open_ &= ~done
                keep = open_.any(axis=0)
                if not keep.all():
                    live = live[keep]
                    acc, tf, tg, z3, open_ = (a[:, keep] for a in (acc, tf, tg, z3, open_))
                    if not live.size:
                        break
    r, c = np.nonzero(open_)
    out[r, live[c]] = acc[r, c]
    return out.reshape(shape)


def _asymptotic(k, z):
    """Leading term (-1)^k/(2 sqrt(pi)) z^{-(1+2k)/4} e^{-(2/3) z^{3/2}}, principal
    branches.  A tuple ``k`` stacks its orders on a leading axis; they share
    log z and z^{3/2}."""
    z = np.asarray(z, dtype=complex)
    lz = np.log(z)
    zeta = (2.0 / 3.0) * np.exp(1.5 * lz)
    out = np.stack([(-1.0) ** kk / (2.0 * math.sqrt(math.pi))
                    * np.exp(-(1.0 + 2.0 * kk) / 4.0 * lz - zeta)
                    for kk in (k if isinstance(k, tuple) else (k,))])
    return out if isinstance(k, tuple) else out[0]


def _ai_any(k, z):
    """Branch-dispatched Ai(k, z) for k in {-2, ..., 3}, or a tuple of orders
    in 0..3 stacked on a leading axis; no sector check."""
    z = np.asarray(z, dtype=complex)
    orders = k if isinstance(k, tuple) else (k,)
    out = np.empty((len(orders),) + z.shape, dtype=complex)
    big = np.abs(z) >= M_THRESHOLD
    if np.any(big):
        out[:, big] = _asymptotic(orders, z[big])
    if np.any(~big):
        zs = z[~big]
        out[:, ~big] = zs * _series(0, zs) if k == -2 else _series(k, zs)
    return out if isinstance(k, tuple) else out[0]


def ai_k(k, z):
    """Ai(z) for k = 0, or the k-th primitive Ai(k, z) for k = 1..3.

    ``k`` may be a tuple of orders: the values come back stacked on a
    leading axis, from one series evaluation.  Series branch below
    |z| = M_THRESHOLD, leading asymptotic term above.  Raises
    SectorViolation outside |arg z| <= 5pi/6.
    """
    orders = k if isinstance(k, tuple) else (k,)
    if not all(kk in (0, 1, 2, 3) for kk in orders):
        raise UnsupportedOrder(f"k = {k} not in 0..3")
    _check_sector(z)
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    out = _ai_any(k, np.atleast_1d(np.asarray(z, dtype=complex)))
    if not scalar:
        return out
    return out[:, 0] if isinstance(k, tuple) else complex(out[0])


def ai_value(k, z):
    """Ai(k, z) together with the branch used (for tabulation)."""
    val = ai_k(k, z)
    branch = AiryBranch.ASYMPTOTIC if abs(z) >= M_THRESHOLD else AiryBranch.SERIES
    return AiryValue(k=k, z=complex(z), value=complex(val), branch=branch)
