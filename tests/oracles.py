"""Independent oracles shared by the tests.

Adaptive Gauss-Kronrod quadrature on segments and rays, the slow-mode
running integrals J, K and L by that quadrature, the slow mode evaluated
quantity by quantity and order by order, the pointwise operators
and norms the tests apply to computed modes, the exact dispersion
function by alternating the two splittings, the Airy Maclaurin series as a
loop that checks its stopping rule after every term, Newton's iteration
with one call of the function per point, and the exponential fast hierarchy
computed on every node of its grid.  None of this is on a path of the
program: the tests compare the program's closed forms, its one-pass slow
mode and per-grid profile arrays, its one-LU remainder
solves, its blocked series recurrence, its Newton iteration and its
hierarchy cut to the support of e^{-varpi Y} against it.  The Airy fast mode's ModeFunction view ``fast_mode_pair``, the spline
``mode_from_grid`` that the exported mode's Hermite interpolant is checked
against, and the magnetic solve's default grid live here too: only the
tests read them.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tswave import airy, fastmode, osresolvent, slowmode
from tswave.errors import (DerivativeBreakdown, NonConvergence, RegimeMismatch,
                           UnsupportedOrder)
from tswave.numerics import (backward_exp_integral, exp_kernel, forward_exp_integral,
                             graded_grid,
                             tail_trapezoid)
from tswave.params import ModeFunction
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


def _at_points(f, z):
    """``f`` on the ndarray of points ``z``, which must give one value per
    point."""
    vals = np.asarray(f(z), dtype=complex)
    if vals.shape != z.shape:
        raise ValueError(f"{vals.shape} values for points of shape {z.shape}")
    return vals


def _gk15(f, a, b):
    """Kronrod value and |K15-G7| estimate of the line integral over [a, b]."""
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    z = mid + half * _XK
    vals = _at_points(f, z)
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
    """Within this block the slow mode, and the order-by-order formulas
    below, read J, K and L from quadrature: the formulas then run on the
    oracle's integrals.  Each (Y, c_hat) is integrated once per block."""
    memo = {}

    def one(Y, chat):
        Yarr = np.asarray(Y, dtype=float)
        key = (Yarr.tobytes(), Yarr.shape, complex(chat))
        if key not in memo:
            memo[key] = _quad_jkl(Yarr, chat)
        return memo[key]

    def supply(Y, chats):
        """The rows of a block of c_hat values, as ``_closed_forms_at``."""
        return tuple(np.stack(rows) for rows in zip(*(one(Y, ch) for ch in chats)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slowmode, "_closed_forms_at", supply)
        mp.setattr(f"{__name__}.closed_forms", one)
        mp.setattr(HartmannProfile, "inv_square_integral",
                   lambda self, Y, chat: _j_array(Y, chat))
        yield


# -- the slow mode order by order ---------------------------------------------
#
# Each function below evaluates one quantity on its own, with the arithmetic
# of its closed form: the profile fields from their own e^{-Y}, J and K from
# their own primitives, psi_{0,j} per derivative order and the shifts, the
# corrector and the slow mode per order from those.  The program builds all
# of them in one pass; the tests hold that pass to these bit for bit.

def profile_field(which, order, Y):
    """U_s = 1 - e^{-Y} or H_s = h_inf - e^{-Y} (``DEFAULT_PROFILE``), or
    its derivative of the given order, from a fresh e^{-Y}."""
    e = np.exp(-np.asarray(Y, dtype=float))
    if order == 0:
        return (1.0 if which == "U" else DEFAULT_PROFILE.h_inf) - e
    return (-1.0) ** (order + 1) * e


def _inv_square_primitive(Y, c_hat):
    Y = np.asarray(Y, dtype=float)
    b = 1.0 - c_hat
    w = (1.0 - np.exp(-Y)) - c_hat
    return Y / b**2 + np.log(w) / b**2 - 1.0 / (b * w)


def inv_square_integral(Y, c_hat):
    """J(Y) = int_1^Y (U_s - c_hat)^{-2} dX."""
    return _inv_square_primitive(Y, c_hat) - _inv_square_primitive(1.0, c_hat)


def corrector_integral(Y, c_hat):
    """K(Y) = int_0^Y U_s' (U_s - c_hat) J(X) dX."""
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
    f1 = _inv_square_primitive(1.0, c_hat)
    return (big_g(Y, e) - big_g(0.0, 1.0)) - f1 * (w**2 - c_hat**2) / 2.0


def closed_forms(Y, chat):
    """(J, K, L) at these Y; L = int_Y^inf U_s' (U_s - c_hat) through the wake."""
    w = profile_field("U", 0, Y) - chat
    b = DEFAULT_PROFILE.u_inf - chat
    return (np.asarray(inv_square_integral(Y, chat)),
            np.asarray(corrector_integral(Y, chat)),
            np.asarray(DEFAULT_PROFILE.wake(Y) * (b + w) / 2.0))


def psi0(j, order, Y, params):
    """d^order/dY^order psi_{0,j}: psi_{0,1} = U_s - c_hat, psi_{0,2} =
    (U_s - c_hat) J."""
    Y = np.asarray(Y, dtype=float)
    chat = params.c_hat
    if j == 1:
        if order == 0:
            return profile_field("U", 0, Y) - chat
        return profile_field("U", order, Y) + 0.0j
    J = closed_forms(Y, chat)[0]
    w = profile_field("U", 0, Y) - chat
    if order == 0:
        return w * J
    du = profile_field("U", 1, Y)
    if order == 1:
        return du * J + 1.0 / w
    d2u = profile_field("U", 2, Y)
    if order == 2:
        return d2u * J
    d3u = profile_field("U", 3, Y)
    return d3u * J + d2u / w**2


def shifted_derivative(j, order, Y, params):
    """(d/dY - alpha)^order applied to psi_{0,j}."""
    a = params.alpha
    out = 0.0
    for m in range(order + 1):
        out = out + math.comb(order, m) * (-a) ** (order - m) * psi0(j, m, Y, params)
    return out


def phi1s(order, Y, params):
    """Corrector Phi_1^s of the given derivative order."""
    Yarr = np.asarray(Y, dtype=float)
    a = params.alpha
    _, K, L = closed_forms(Yarr, params.c_hat)
    ea = np.exp(-a * Yarr)
    p = (-2.0 * shifted_derivative(1, order, Yarr, params) * ea * K
         - 2.0 * shifted_derivative(2, order, Yarr, params) * ea * L)
    if order <= 1:
        return p
    du = profile_field("U", 1, Yarr)
    if order == 2:
        return p + 2.0 * du * ea
    d2u = profile_field("U", 2, Yarr)
    return p + (2.0 * d2u - 6.0 * a * du) * ea


def phi_app_s(order, Y, params):
    """Slow mode psi_{alpha,1} + alpha Phi_1^s of the given derivative order."""
    Yarr = np.asarray(Y, dtype=float)
    ea = np.exp(-params.alpha * Yarr)
    base = ea * shifted_derivative(1, order, Yarr, params)
    return base + params.alpha * phi1s(order, Yarr, params)


def damped_corrector_combo(Y, params):
    """dY Phi_1^s + alpha Phi_1^s as -2 psi_{0,1}' e^{-alpha Y} K
    - 2 psi_{0,2}' e^{-alpha Y} L."""
    Yarr = np.asarray(Y, dtype=float)
    _, K, L = closed_forms(Yarr, params.c_hat)
    ea = np.exp(-params.alpha * Yarr)
    return (-2.0 * psi0(1, 1, Yarr, params) * ea * K
            - 2.0 * psi0(2, 1, Yarr, params) * ea * L)


def closed_form_calls(monkeypatch):
    """Record the number of points of every evaluation of J, K and L
    (``HartmannProfile.critical_layer_integrals``) for the rest of a test."""
    sizes = []
    method = HartmannProfile.critical_layer_integrals

    def counted(self, Y, chat):
        sizes.append(np.size(Y))
        return method(self, Y, chat)

    monkeypatch.setattr(HartmannProfile, "critical_layer_integrals", counted)
    return sizes


# -- pointwise operators and norms --------------------------------------------

def rayleigh_apply(f, Y, params):
    """(U_s - c_hat)(f'' - alpha^2 f) - U_s'' f evaluated pointwise."""
    if f.max_order < 2:
        raise UnsupportedOrder("rayleigh_apply needs two derivatives")
    Yarr = np.asarray(Y, dtype=float)
    w = _u(0, Yarr) - params.c_hat
    d2u = _u(2, Yarr)
    return w * (f.eval(2, Yarr) - params.alpha**2 * f.eval(0, Yarr)) - d2u * f.eval(0, Yarr)


def equation_residual(mode, params, f, Y, step=1e-3):
    """Differential residual -(phi'' - alpha^2 phi) + i alpha (U_s - c) phi - f
    of a magnetic solution ``mode`` (a ModeFunction) with source ``f`` (a
    function of Y), with the second derivative taken by central differences
    of the solution values.  Carries the O(step^2) + interpolation error of
    the discretization on top of the solver's fixed-point defect, which
    ``trace.residual_weighted`` holds alone."""
    p = params
    Y = np.asarray(Y, dtype=float)
    us = _u(0, Y)
    d2 = (mode.eval(0, Y + step) - 2.0 * mode.eval(0, Y) + mode.eval(0, Y - step)) / step**2
    return (-(d2 - p.alpha**2 * mode.eval(0, Y))
            + 1j * p.alpha * (us - p.c) * mode.eval(0, Y) - f(Y))


def sup_exp_norm(vals, grid, eta):
    """Weighted sup norm sup_Y e^{eta Y} |f(Y)| on the grid."""
    return float(np.max(np.exp(eta * grid) * np.abs(vals)))


# -- difference stencils as sparse matrices ------------------------------------

def stencil_matrix(stencil):
    """The CSR matrix of a ``numerics.Stencil``: the rows of the sparse
    assembly the operator oracles are written in."""
    from scipy import sparse

    n = stencil.w.shape[1] + 2
    inner = np.arange(1, n - 1)
    rows = np.concatenate([[0] * 3, np.repeat(inner, 3), [n - 1] * 3])
    cols = np.concatenate([[0, 1, 2], (inner[:, None] + np.arange(-1, 2)).ravel(),
                           [n - 3, n - 2, n - 1]])
    data = np.concatenate([stencil.first,
                           stencil.w.T.ravel(),
                           stencil.last])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


# -- exact dispersion function by alternation ---------------------------------

def alternated_remainders(c, params, bvp):
    """The two remainder solves of the exact dispersion function by the
    paper's alternation of the two splittings (``OSIteration``), on the
    sources of ``osresolvent._sources``.  Returns ``(gamma0,
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
    slopes = [bvp.d1.wall(phi) for phi, _, _ in remainders]
    return gamma0 - slopes[0] - slopes[1], tuple(t for _, _, t in remainders)


# -- exponential fast hierarchy on the whole grid -----------------------------

def hierarchy_full_grid(params, grid, n_terms):
    """Levels 0..n_terms of the beta-regime exponential hierarchy with the
    level recurrence run on every node of ``grid``, as ``{"phi", "dphi",
    "d2phi", "rhs", "psi"}`` -> list of level arrays."""
    grid = np.asarray(grid, dtype=float)
    varpi = params.varpi
    us = DEFAULT_PROFILE.eval("U", 0, grid)
    dus = DEFAULT_PROFILE.eval("U", 1, grid)
    n = params.n
    phi = np.exp(-varpi * grid)
    dphi = -varpi * phi
    phi_levels = [phi]
    dphi_levels = [dphi]
    d2phi_levels = [varpi**2 * phi]
    rhs_levels = [np.zeros_like(phi)]
    kernel = exp_kernel(grid, (varpi,))
    for _ in range(1, n_terms + 1):
        prev = phi_levels[-1]
        anti = -tail_trapezoid(dus * prev, grid)
        rhs = -us * prev + 2.0 * anti
        inner = backward_exp_integral(rhs[None], grid, kernel)[0]
        phi_k = 1j * n * forward_exp_integral(inner[None], grid, kernel)[0]
        dphi_k = -varpi * phi_k + 1j * n * inner
        d2phi_k = -1j * n * (params.c * phi_k + rhs)
        phi_levels.append(phi_k)
        dphi_levels.append(dphi_k)
        d2phi_levels.append(d2phi_k)
        rhs_levels.append(rhs)
    psi_levels = ([np.exp(-varpi * grid) / varpi]
                  + [tail_trapezoid(p, grid) for p in phi_levels[1:]])
    return {"phi": phi_levels, "dphi": dphi_levels, "d2phi": d2phi_levels,
            "rhs": rhs_levels, "psi": psi_levels}


# -- the Airy fast mode at any Y and the magnetic default grid -----------------

def airy_ratios(Y, params):
    """Ai(k, Y/delta + z0)/Ai(2, z0), k = 0..3, at these Y: the block
    ``fastmode.airy_fast`` reads, from one evaluation of the four orders."""
    z0 = params.z0
    return (airy._ai_any((0, 1, 2, 3), np.asarray(Y, dtype=float) / params.delta + z0)
            / airy.ai_k(2, z0))


def fast_mode_pair(params):
    """(Phi_app^f, Psi_app^f) as ModeFunctions for the eps^{1/8} regime:
    ``fastmode.airy_fast`` on the Airy ratios of any Y."""
    if not params.is_eighth:
        raise RegimeMismatch("fast_mode_pair is the eps^{1/8}-regime fast mode")
    fastmode.check_sublayer_scales(params)

    def mode(which):
        return ModeFunction(max_order=2, evaluator=lambda o, Y: fastmode.airy_fast(
            which, o, Y, params, airy_ratios(Y, params)))

    return mode("Phi"), mode("Psi")


def default_magnetic_grid(params, n_nodes=1200):
    """Graded grid of a stand-alone magnetic solve, out to the far field."""
    return graded_grid(n_nodes, params.far_field, cluster_scale=1.0)


# -- a mode interpolated from its grid samples by cubic splines ---------------

def mode_from_grid(grid, vals_by_order):
    """ModeFunction of a not-a-knot cubic spline through each order's grid
    samples, 0 past the last node: the reference for ``numerics.hermite``."""
    splines = [(CubicSpline(grid, v.real), CubicSpline(grid, v.imag))
               for v in vals_by_order]
    ymax = grid[-1]

    def evaluator(order, Y):
        re, im = splines[order]
        return np.where(Y <= ymax, re(Y) + 1j * im(Y), 0.0)

    return ModeFunction(max_order=len(splines) - 1, evaluator=evaluator)


# -- Airy Maclaurin series, one stopping check per term ------------------------

def series_loop(k, z, tol=1e-18, max_terms=420):
    """Ai(k, z) by the Maclaurin series of ``airy._series``, for k in
    {0, 1, 2, 3} or a tuple of those orders stacked on a leading axis.
    The f- and g-part terms of each order are separate arrays, the stopping
    rule is checked after every term, and the points that are done leave
    the arrays at once."""
    z = np.asarray(z, dtype=complex)
    c1, c2 = airy.AI_ZERO, -airy.AIP_ZERO
    z3 = z**3
    orders = k if isinstance(k, tuple) else (k,)
    if not all(0 <= kk <= 3 for kk in orders):
        raise UnsupportedOrder(f"series order k = {k}")
    consts = airy.primitive_constants()
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
    j = 3 * np.arange(max_terms).reshape(-1, 1, 1) + np.reshape(orders, (-1, 1))
    den_f = (j * (j - 1) * (j - 2)).astype(complex)
    den_g = ((j + 1) * j * (j - 1)).astype(complex)
    z3 = np.tile(z3, (len(orders), 1))
    out = np.empty_like(acc)
    open_ = np.ones(acc.shape, dtype=bool)
    live = np.arange(acc.shape[1])
    # an element stops at the first term past m = 8 with |tf| + |tg| <= tol |acc|
    for m in range(1, max_terms):
        tf = tf * (3 * m - 2) * z3 / den_f[m]
        tg = tg * (3 * m - 1) * z3 / den_g[m]
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
    return out if isinstance(k, tuple) else out[0]


# -- Newton's iteration, one point per call -----------------------------------

def newton_loop(g, c0, tol=1e-12, max_iter=40):
    """Damped complex Newton iteration as ``numerics.newton_root`` without a
    region: ``g`` at each point alone, the two difference points
    (step ``1e-7 * max(|c|, 1)``) as one array through ``_at_points``.
    Returns ``(root, iterates, residuals, converged)``; raises
    DerivativeBreakdown or NonConvergence as the iteration does."""
    c = complex(c0)
    gc = complex(g(c))
    iterates, residuals = [c], [abs(gc)]
    for _ in range(max_iter):
        if abs(gc) <= tol:
            return c, iterates, residuals, True
        h = 1e-7 * max(abs(c), 1.0)
        g_plus, g_minus = _at_points(g, np.array([c + h, c - h]))
        gp = (complex(g_plus) - complex(g_minus)) / (2.0 * h)
        if abs(gp) < 1e-280 or not np.isfinite(gp):
            raise DerivativeBreakdown(f"difference quotient {gp} at c = {c}")
        step = -gc / gp
        lam = 1.0
        while lam > 2 ** -50:
            cand = c + lam * step
            gcand = complex(g(cand))
            if abs(gcand) < abs(gc):
                c, gc = cand, gcand
                break
            lam /= 2.0
        else:
            raise NonConvergence(f"damping stalled at c = {c}, |g| = {abs(gc):.3e}")
        iterates.append(c)
        residuals.append(abs(gc))
    if abs(gc) <= tol:
        return c, iterates, residuals, True
    raise NonConvergence(f"Newton did not reach |g| <= {tol:.1e} in {max_iter} steps "
                         f"(final |g| = {abs(gc):.3e})")
