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
    """Maclaurin evaluation of Ai(k, z) for k in {0, 1, 2, 3} (entire).

    ``k`` may be a tuple of orders: all of them run in one recurrence and
    come back stacked on a leading axis, each value equal to its
    single-order evaluation.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    c1, c2 = AI_ZERO, -AIP_ZERO
    orders = k if isinstance(k, tuple) else (k,)
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
    terms = np.concatenate([tf, tg])
    out = _sum_terms(acc, terms, z**3, *_step_columns(orders, max_terms), tol, max_terms)
    out = out.reshape((len(orders),) + shape)
    return out if isinstance(k, tuple) else out[0]


# steps of the recurrence between two checks of the stopping rule
_CHECK_EVERY = 8


@lru_cache(maxsize=16)
def _step_columns(orders, max_terms):
    """The factors of every series step m as complex columns, shaped
    (max_terms, 2 len(orders), 1): f-part rows above g-part rows, one per
    order, so that each row rounds exactly as a single order's step with
    integer factors does.

    Step m multiplies by 3m - 2 (f) or 3m - 1 (g) and divides by
    j (j - 1) (j - 2) or (j + 1) j (j - 1), j = 3m + k.  Read-only.
    """
    def column(f_part, g_part):
        out = np.concatenate([f_part, g_part], axis=1).astype(complex)
        out.flags.writeable = False
        return out

    m = np.arange(max_terms).reshape(-1, 1, 1)
    j = 3 * m + np.reshape(orders, (-1, 1))
    ones = np.ones_like(j)
    return (column((3 * m - 2) * ones, (3 * m - 1) * ones),
            column(j * (j - 1) * (j - 2), (j + 1) * j * (j - 1)))


def _sum_terms(acc, terms, z3, mult, den, tol, max_terms):
    """``acc`` (one row per order) plus the series terms m = 1, 2, ... of
    its f- and g-parts, ``terms`` holding the f-part rows above the g-part
    rows.  Step m multiplies the terms by ``mult[m]`` and by z^3, and
    divides them by ``den[m]``.

    An element is done at the first term past m = 8 whose f- and g-part
    moduli sum to at most ``tol`` relative to its sum, and keeps that sum:
    it takes the terms it would take alone, so its value depends on no other
    element.  The steps of a block are recorded and the rule is checked once
    per block; a point leaves the working set once all its orders are done.
    """
    rows = acc.shape[0]
    # z3 repeated per row: numpy's complex multiply can round differently
    # when an operand is broadcast, and each row must round as one order does
    z3 = np.tile(z3, (2 * rows, 1))
    for m in range(1, min(9, max_terms)):  # no element stops here
        terms = terms * mult[m]
        terms = terms * z3 / den[m]
        acc = acc + terms[:rows] + terms[rows:]
    out = np.empty_like(acc)
    open_ = np.ones(acc.shape, dtype=bool)
    live = np.arange(acc.shape[1])
    for m0 in range(9, max_terms, _CHECK_EVERY):
        steps = min(_CHECK_EVERY, max_terms - m0)
        tbuf = np.empty((steps,) + terms.shape, dtype=complex)
        abuf = np.empty((steps,) + acc.shape, dtype=complex)
        for i in range(steps):
            t, a = tbuf[i], abuf[i]
            np.multiply(terms, mult[m0 + i], out=t)
            np.multiply(t, z3, out=t)
            np.divide(t, den[m0 + i], out=t)
            np.add(acc, t[:rows], out=a)
            np.add(a, t[rows:], out=a)
            terms, acc = t, a
        size = np.abs(tbuf)
        done = size[:, :rows] + size[:, rows:] <= tol * np.abs(abuf)
        hit = done.any(axis=0)
        if not hit.any():
            continue
        r, c = np.nonzero(hit & open_)
        out[r, live[c]] = abuf[done.argmax(axis=0)[r, c], r, c]
        open_ &= ~hit
        keep = open_.any(axis=0)
        if not keep.any():
            return out
        if not keep.all():
            live = live[keep]
            terms, acc, z3, open_ = terms[:, keep], acc[:, keep], z3[:, keep], open_[:, keep]
    r, c = np.nonzero(open_)
    out[r, live[c]] = acc[r, c]
    return out


def _asymptotic(k, z):
    """Leading term (-1)^k/(2 sqrt(pi)) z^{-(1+2k)/4} e^{-(2/3) z^{3/2}}, principal
    branches.  A tuple ``k`` stacks its orders on a leading axis; they share
    log z and z^{3/2}."""
    z = np.asarray(z, dtype=complex)
    lz = np.log(z)
    zeta = (2.0 / 3.0) * np.exp(1.5 * lz)
    # each exponential bound to a name: numpy forms ``scalar * temporary`` of
    # 256 KiB or more in place, swapped, which can flip an underflow's sign
    out = np.stack([(-1.0) ** kk / (2.0 * math.sqrt(math.pi)) * decay
                    for kk in (k if isinstance(k, tuple) else (k,))
                    for decay in [np.exp(-(1.0 + 2.0 * kk) / 4.0 * lz - zeta)]])
    return out if isinstance(k, tuple) else out[0]


def _ai_any(k, z):
    """Branch-dispatched Ai(k, z) for k in 0..3, or a tuple of orders stacked
    on a leading axis; no sector check."""
    z = np.asarray(z, dtype=complex)
    orders = k if isinstance(k, tuple) else (k,)
    out = np.empty((len(orders),) + z.shape, dtype=complex)
    big = np.abs(z) >= M_THRESHOLD
    if np.any(big):
        out[:, big] = _asymptotic(orders, z[big])
    if np.any(~big):
        out[:, ~big] = _series(k, z[~big])
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
