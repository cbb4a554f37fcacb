"""Independent oracles shared by the tests.

Adaptive Gauss-Kronrod quadrature on segments and rays, the slow-mode
running integrals J, K and L by that quadrature, the pointwise operators
and norms the tests apply to computed modes, and the exact dispersion
function by alternating the two splittings.  None of this is on a path of
the program: the tests compare the program's closed forms and its one-LU
remainder solves against it.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from tswave import osresolvent, slowmode
from tswave.errors import NonConvergence, UnsupportedOrder
from tswave.numerics import _eval_vectorized
from tswave.profile import DEFAULT_PROFILE, HartmannProfile


# -- adaptive Gauss-Kronrod quadrature ---------------------------------------

@dataclass(frozen=True)
class Segment:
    """Straight path from ``start`` to ``end`` in the complex plane."""

    start: complex
    end: complex

    def __post_init__(self):
        if self.start == self.end:
            raise ValueError("degenerate segment: start == end")


@dataclass(frozen=True)
class Ray:
    """Half-line ``start + s*direction``, s >= 0, with unit-modulus direction."""

    start: complex
    direction: complex

    def __post_init__(self):
        mod = abs(self.direction)
        if mod == 0.0:
            raise ValueError("ray direction must be nonzero")
        if abs(mod - 1.0) > 1e-12:
            object.__setattr__(self, "direction", self.direction / mod)


# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(f, a, b):
    """Kronrod value and |K15-G7| estimate of the line integral over [a, b]."""
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    z = mid + half * _XK
    vals = _eval_vectorized(f, z)
    if not np.all(np.isfinite(vals)):
        raise NonConvergence(f"integrand not finite on [{a}, {b}] (singularity on path?)")
    k15 = half * np.sum(_WK * vals)
    g7 = half * np.sum(_WG * vals[_GAUSS_IDX])
    return k15, abs(k15 - g7)


def quad_segment(f, path, rel_tol=1e-10, max_intervals=4096):
    """Adaptive line integral of ``f`` along a :class:`Segment` or :class:`Ray`.

    Gauss-Kronrod pairs supply the embedded error estimate; the interval with
    the largest estimate is bisected until the summed estimate meets
    ``rel_tol`` relative to the accumulated value.  Rays are truncated once an
    additional doubling chunk contributes below 1e-18 of the running total.
    """
    if not 1e-14 < rel_tol < 1e-3:
        raise ValueError("rel_tol must lie in (1e-14, 1e-3)")
    if isinstance(path, Ray):
        return _quad_ray(f, path, rel_tol, max_intervals)
    if not isinstance(path, Segment):
        raise TypeError("path must be a Segment or Ray")
    return _quad_adaptive(f, path.start, path.end, rel_tol, max_intervals)


def _quad_adaptive(f, a, b, rel_tol, max_intervals):
    k, e = _gk15(f, a, b)
    # heap of (-error, counter, a, b, value, error); counter breaks ties
    heap = [(-e, 0, a, b, k, e)]
    total = k
    total_err = e
    count = 1
    while total_err > rel_tol * max(abs(total), 1e-300):
        if count >= max_intervals:
            raise NonConvergence(
                f"quadrature budget exhausted: {count} intervals, err {total_err:.2e} vs "
                f"target {rel_tol * abs(total):.2e}")
        neg_e, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = (ia + ib) / 2.0
        kl, el = _gk15(f, ia, im)
        kr, er = _gk15(f, im, ib)
        total += kl + kr - ival
        total_err += el + er - ierr
        count += 1
        heapq.heappush(heap, (-el, count, ia, im, kl, el))
        heapq.heappush(heap, (-er, count + max_intervals, im, ib, kr, er))
    return total


def _quad_ray(f, ray, rel_tol, max_intervals):
    total = 0.0 + 0.0j
    s0, length = 0.0, 1.0
    for _ in range(64):
        a = ray.start + s0 * ray.direction
        b = ray.start + (s0 + length) * ray.direction
        chunk = _quad_adaptive(f, a, b, rel_tol, max_intervals)
        total += chunk
        if abs(chunk) < 1e-18 * max(abs(total), 1e-300) and s0 > 0.0:
            return total
        s0 += length
        length *= 2.0
    raise NonConvergence("ray integrand does not decay; truncation never engaged")


# -- slow-mode running integrals by quadrature --------------------------------

_QUAD_TOL = 1e-11


def _u(order, X):
    return DEFAULT_PROFILE.eval("U", order, X)


def _j_quad(Y, chat):
    """J(Y) = int_1^Y (U_s - c_hat)^{-2} dX at one real Y.

    The integrand is tame for Y > 1; on [0, 1] an integration by parts
    removes the near-singular inverse square and leaves an integrable
    logarithm.
    """
    def w(X):
        return _u(0, X) - chat

    if Y == 1.0:
        return 0.0 + 0.0j
    if Y > 1.0:
        return quad_segment(lambda X: 1.0 / w(np.real(X)) ** 2, Segment(1.0, Y),
                            rel_tol=_QUAD_TOL)

    def ratio(X):
        return _u(2, X) / _u(1, X) ** 3

    def dratio(X):
        du, d2u, d3u = _u(1, X), _u(2, X), _u(3, X)
        return d3u / du**3 - 3.0 * d2u**2 / du**4

    boundary = (-1.0 / (_u(1, Y) * w(Y)) + 1.0 / (_u(1, 1.0) * w(1.0))
                - np.log(w(Y)) * ratio(Y) + np.log(w(1.0)) * ratio(1.0))
    rest = quad_segment(lambda X: np.log(w(np.real(X))) * dratio(np.real(X)),
                        Segment(1.0, Y), rel_tol=_QUAD_TOL)
    return boundary + rest


def _j_array(Y, chat):
    """J by quadrature, elementwise over broadcast Y and c_hat."""
    Y, chat = np.broadcast_arrays(np.asarray(Y, dtype=float), np.asarray(chat, dtype=complex))
    out = np.array([_j_quad(float(y), complex(ch)) for y, ch in zip(Y.ravel(), chat.ravel())],
                   dtype=complex)
    return out.reshape(Y.shape)


def _quad_jkl(Y, chat):
    """(J, K, L) at these Y by quadrature, shaped like the closed forms:

    J(Y) = int_1^Y (U_s - c_hat)^{-2},  K(Y) = int_0^Y U_s' psi_{0,2},
    L(Y) = int_Y^inf U_s' psi_{0,1}.
    """
    def k_int(y):
        if y == 0.0:
            return 0.0 + 0.0j
        return quad_segment(
            lambda X: _u(1, np.real(X)) * ((_u(0, np.real(X)) - chat)
                                           * _j_array(np.real(X), chat)),
            Segment(0.0, y), rel_tol=_QUAD_TOL)

    def l_int(y):
        return quad_segment(lambda X: _u(1, np.real(X)) * (_u(0, np.real(X)) - chat),
                            Ray(y, 1.0 + 0.0j), rel_tol=_QUAD_TOL)

    Yarr = np.asarray(Y, dtype=float)
    J = _j_array(Yarr, chat)
    K = np.array([k_int(float(y)) for y in Yarr.ravel()], dtype=complex).reshape(Yarr.shape)
    L = np.array([l_int(float(y)) for y in Yarr.ravel()], dtype=complex).reshape(Yarr.shape)
    return (J, K, L) if Yarr.ndim else (J[()], K[()], L[()])


@contextmanager
def quadrature_integrals():
    """Within this block the slow mode reads J, K and L from quadrature: the
    production formulas then run on the oracle's integrals, bypassing the
    closed-form cache.  Each (Y, c_hat) is integrated once per block."""
    memo = {}

    def supply(Y, chat):
        Yarr = np.asarray(Y, dtype=float)
        key = (Yarr.tobytes(), Yarr.shape, complex(chat))
        if key not in memo:
            memo[key] = _quad_jkl(Yarr, chat)
        return memo[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slowmode, "_closed_forms_at", supply)
        mp.setattr(HartmannProfile, "inv_square_integral",
                   lambda self, Y, chat: _j_array(Y, chat))
        yield


# -- pointwise operators and norms --------------------------------------------

def rayleigh_apply(f, Y, params):
    """(U_s - c_hat)(f'' - alpha^2 f) - U_s'' f evaluated pointwise."""
    if f.max_order < 2:
        raise UnsupportedOrder("rayleigh_apply needs two derivatives")
    Yarr = np.asarray(Y, dtype=float)
    w = _u(0, Yarr) - params.c_hat
    d2u = _u(2, Yarr)
    return w * (f.eval(2, Yarr) - params.alpha**2 * f.eval(0, Yarr)) - d2u * f.eval(0, Yarr)


def equation_residual(mode, prob, Y, step=1e-3):
    """Differential residual -(phi'' - alpha^2 phi) + i alpha (U_s - c) phi - f
    of a magnetic solution, with the second derivative taken by central
    differences of the solution values.  Carries the O(step^2) +
    interpolation error of the discretization on top of the solver's
    fixed-point defect, which ``trace.residual_weighted`` holds alone."""
    p = prob.params
    Y = np.asarray(Y, dtype=float)
    us = _u(0, Y)
    d2 = (mode.eval(0, Y + step) - 2.0 * mode.eval(0, Y) + mode.eval(0, Y - step)) / step**2
    return (-(d2 - p.alpha**2 * mode.eval(0, Y))
            + 1j * p.alpha * (us - p.c) * mode.eval(0, Y) - prob.f.eval(0, Y))


def sup_exp_norm(vals, grid, eta):
    """Weighted sup norm sup_Y e^{eta Y} |f(Y)| on the grid."""
    return float(np.max(np.exp(eta * grid) * np.abs(vals)))


# -- exact dispersion function by alternation ---------------------------------

def alternated_remainders(c, params, bvp):
    """The two remainder solves of the exact dispersion function by the
    paper's alternation of the two splittings (``OSIteration``), on the
    sources of ``osresolvent._solve_remainders``.  Returns ``(gamma0,
    remainders)``, each remainder its grid arrays (phi, psi) and its
    ``IterationTrace``."""
    p = params.with_c(c)
    arrays, gamma0, _ = osresolvent.assemble_error_terms(c, params, bvp)
    it = osresolvent.OSIteration(p, bvp)
    phi1, _, psi1, trace1 = it.iterate(arrays["e3s"] + arrays["e3f"], arrays["ff"],
                                       tol=1e-8, entry="d")
    div_source = (bvp.d1 @ (arrays["e1s"] + arrays["e1f"])
                  + 1j * p.alpha * (arrays["e2s"] + arrays["e2f"]))
    phi2, _, psi2, trace2 = it.iterate(div_source, None, tol=1e-8, entry="s")
    return gamma0, ((phi1, psi1, trace1), (phi2, psi2, trace2))


def alternated_gamma(c, params, bvp):
    """Gamma(c) = Gamma0(c) minus the wall slopes of the alternated
    remainders, and the two alternation traces."""
    gamma0, remainders = alternated_remainders(c, params, bvp)
    slopes = [(bvp.d1[0] @ phi)[0] for phi, _, _ in remainders]
    return gamma0 - slopes[0] - slopes[1], tuple(t for _, _, t in remainders)
