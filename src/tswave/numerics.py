"""Shared complex-analysis and grid utilities.

Adaptive Gauss-Kronrod quadrature on segments and rays, adaptive winding-number
counting on circles, damped complex Newton iteration, graded grids with
sub-layer clustering, and the exponential-kernel cumulative integrals used by
the mild formulations of the second-order solvers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import ztbtrs

from .errors import (
    DerivativeBreakdown,
    NonConvergence,
    NonResolvable,
    TswaveError,
    ZeroOnContour,
)

__all__ = [
    "Segment",
    "Ray",
    "Circle",
    "RootTrace",
    "quad_segment",
    "winding_samples",
    "newton_root",
    "graded_grid",
    "trap_weights",
    "diff_matrix",
    "boundary_slope",
    "l2_norm",
    "sup_exp_norm",
    "cumulative_trapezoid",
    "tail_trapezoid",
    "forward_exp_integral",
    "backward_exp_integral",
]


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


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("circle radius must be positive")

    def point(self, theta):
        return self.center + self.radius * np.exp(1j * np.asarray(theta))

    def contains(self, z, slack=0.0):
        return abs(z - self.center) <= self.radius * (1.0 + slack)


@dataclass
class RootTrace:
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self):
        return self.residuals[-1] if self.residuals else math.inf


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


def _eval_vectorized(f, z):
    """Evaluate ``f`` on an ndarray of complex points, tolerating scalar-only
    callables.  A result with one value per point is taken in any shape, so a
    scalar-only ``f`` that returns a scalar for one point is called once."""
    z = np.asarray(z, dtype=complex)
    try:
        vals = np.asarray(f(z), dtype=complex)
        if vals.size == z.size:
            return vals.reshape(z.shape)
    except (TypeError, ValueError):
        pass
    return np.array([f(zi) for zi in z.ravel()], dtype=complex).reshape(z.shape)


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


def winding_samples(g, circle, init_samples=64, max_samples=65536):
    """Winding number plus the boundary samples used to certify it.

    Returns ``(winding, thetas, values)``.  Samples are inserted adaptively
    until every consecutive argument increment is below pi/2, which makes the
    discrete branch tracking of arg g unambiguous.  The sample phases carry a
    half-step offset so that symmetry-aligned boundary points (where g may be
    singular, e.g. a certification disk tangent to a branch line) are never
    evaluated exactly.
    """
    if init_samples < 16:
        raise ValueError("init_samples must be at least 16")
    offset = math.pi / init_samples
    thetas = offset + np.linspace(0.0, 2.0 * math.pi, init_samples + 1)
    vals = _eval_vectorized(g, circle.point(thetas))
    while True:
        amax = np.max(np.abs(vals))
        if amax == 0.0 or np.min(np.abs(vals)) <= 1e-13 * amax:
            idx = int(np.argmin(np.abs(vals)))
            raise ZeroOnContour(
                f"|g| = {np.min(np.abs(vals)):.3e} at theta = {thetas[idx]:.6f} "
                f"(max |g| = {amax:.3e})")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= math.pi / 2.0)
        if bad.size == 0:
            break
        if thetas.size + bad.size > max_samples:
            raise NonResolvable(
                f"argument continuation not resolved with {thetas.size} samples")
        mids = (thetas[bad] + thetas[bad + 1]) / 2.0
        mvals = _eval_vectorized(g, circle.point(mids))
        thetas = np.insert(thetas, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    turns = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * math.pi)
    winding = int(round(turns))
    if abs(turns - winding) > 1e-6:
        raise NonResolvable(f"winding sum {turns} is not an integer")
    return winding, thetas, vals


def newton_root(g, c0, tol=1e-12, max_iter=40):
    """Damped complex Newton iteration with central-difference derivative.

    The derivative step is ``1e-7 * max(|c|, 1)``, and the two difference
    points go to ``g`` as one array (one point at a time when ``g`` takes
    scalars only).  A step is halved until the residual decreases (up to 50
    halvings).  Returns ``(root, RootTrace)``.
    """
    trace = RootTrace()
    c = complex(c0)
    gc = complex(g(c))
    trace.iterates.append(c)
    trace.residuals.append(abs(gc))
    for _ in range(max_iter):
        if abs(gc) <= tol:
            trace.converged = True
            return c, trace
        h = 1e-7 * max(abs(c), 1.0)
        g_plus, g_minus = _eval_vectorized(g, np.array([c + h, c - h]))
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
        trace.iterates.append(c)
        trace.residuals.append(abs(gc))
    if abs(gc) <= tol:
        trace.converged = True
        return c, trace
    err = NonConvergence(f"Newton did not reach |g| <= {tol:.1e} in {max_iter} steps "
                         f"(final |g| = {abs(gc):.3e})")
    err.trace = trace
    try:
        raise err
    finally:
        del err     # break the exception -> traceback -> frame cycle that keeps g alive


def graded_grid(n_nodes, y_max, cluster_scale, points_per_scale=6.0):
    """Strictly increasing grid on [0, y_max] clustered near Y = 0.

    A sinh map is tuned so the first spacing is about
    ``cluster_scale / points_per_scale``; for coarse targets it degrades to a
    uniform grid.
    """
    if n_nodes < 16:
        raise ValueError("need at least 16 nodes")
    h0 = cluster_scale / points_per_scale
    ratio = h0 * (n_nodes - 1) / y_max
    s = np.linspace(0.0, 1.0, n_nodes)
    if ratio >= 1.0:
        return y_max * s
    lo, hi = 1e-9, 60.0
    for _ in range(200):
        gamma = 0.5 * (lo + hi)
        if gamma / math.sinh(gamma) > ratio:
            lo = gamma
        else:
            hi = gamma
    gamma = 0.5 * (lo + hi)
    return y_max * np.sinh(gamma * s) / math.sinh(gamma)


def trap_weights(grid):
    """Trapezoid quadrature weights for a nonuniform grid."""
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def diff_matrix(grid, order):
    """Sparse 3-point finite-difference matrix (order 1 or 2) on a nonuniform grid."""
    from scipy import sparse

    n = grid.size
    hm = np.diff(grid)
    # interior rows i = 1..n-2 with spacings a = h_{i-1}, b = h_i
    a, b = hm[:-1], hm[1:]
    if order == 1:
        stencil = [-b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b))]
    else:
        stencil = [2.0 / (a * (a + b)), -2.0 / (a * b), 2.0 / (b * (a + b))]
    # one-sided closures at the ends, from the end node inward
    a0, b0, a1, b1 = hm[0], hm[1], hm[-1], hm[-2]
    if order == 1:
        first = [-(2 * a0 + b0) / (a0 * (a0 + b0)), (a0 + b0) / (a0 * b0),
                 -a0 / (b0 * (a0 + b0))]
        last = [(2 * a1 + b1) / (a1 * (a1 + b1)), -(a1 + b1) / (a1 * b1),
                a1 / (b1 * (a1 + b1))]
    else:
        first = [2.0 / (a0 * (a0 + b0)), -2.0 / (a0 * b0), 2.0 / (b0 * (a0 + b0))]
        last = [2.0 / (a1 * (a1 + b1)), -2.0 / (a1 * b1), 2.0 / (b1 * (a1 + b1))]
    inner = np.arange(1, n - 1)
    rows = np.concatenate([np.repeat(inner, 3), [0, 0, 0], [n - 1] * 3])
    cols = np.concatenate([(inner[:, None] + np.arange(-1, 2)).ravel(),
                           [0, 1, 2], [n - 1, n - 2, n - 3]])
    data = np.concatenate([np.column_stack(stencil).ravel(), first, last])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def boundary_slope(grid, vals):
    """Second-order one-sided first derivative at the first grid node."""
    a = grid[1] - grid[0]
    b = grid[2] - grid[1]
    return (-(2 * a + b) / (a * (a + b)) * vals[0]
            + (a + b) / (a * b) * vals[1]
            - a / (b * (a + b)) * vals[2])


def l2_norm(vals, weights, point_weight=None, noise_floor=0.0):
    """Trapezoid L2 norm, optionally with a pointwise weight function.

    ``noise_floor`` masks entries below ``noise_floor * max|vals|`` before the
    weight is applied; solver output at far-field nodes is roundoff, and an
    exponentially growing weight would otherwise amplify it into the norm.
    The weight multiplies nonzero entries only, so a zero value contributes
    zero even where the weight is infinite.
    """
    v = np.abs(np.asarray(vals))
    if noise_floor > 0.0 and v.size:
        v = np.where(v > noise_floor * v.max(), v, 0.0)
    if point_weight is not None:
        live = v > 0.0
        v[live] *= np.asarray(point_weight)[live]
    return math.sqrt(float(np.sum(weights * v * v)))


def sup_exp_norm(vals, grid, eta):
    """Weighted sup norm sup_Y e^{eta Y} |f(Y)| on the grid."""
    return float(np.max(np.exp(eta * grid) * np.abs(vals)))


def cumulative_trapezoid(vals, grid):
    """Trapezoid cumulative integral from the first node."""
    out = np.zeros(len(grid), dtype=complex)
    incr = 0.5 * (np.asarray(vals)[1:] + np.asarray(vals)[:-1]) * np.diff(grid)
    out[1:] = np.cumsum(incr)
    return out


def tail_trapezoid(vals, grid, tail_rate=0.0):
    """Trapezoid integral from each node to infinity.

    Beyond the last node the integrand is modeled as
    ``vals[-1] * exp(-tail_rate (Y - Y_max))``; with ``tail_rate == 0`` the
    tail is dropped.
    """
    cum = cumulative_trapezoid(vals, grid)
    tail = vals[-1] / tail_rate if tail_rate > 0.0 else 0.0
    return (cum[-1] - cum) + tail


def _exp_kernel_coeffs(x):
    """(A, B) with A = int_0^h e^{-xi s} ds / 1, B = int_0^h e^{-xi s} s ds, x = xi*h.

    Returned scaled: A_hat = A/h, B_hat = B/h^2 so that callers multiply back.
    Series branch keeps relative accuracy for small |x|.
    """
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-2
    a, b = np.empty_like(x), np.empty_like(x)
    xs, xd = x[small], x[~small]
    a[small] = 1.0 - xs / 2.0 + xs**2 / 6.0 - xs**3 / 24.0 + xs**4 / 120.0
    b[small] = 0.5 - xs / 3.0 + xs**2 / 8.0 - xs**3 / 30.0 + xs**4 / 144.0
    # A/h = (1 - e^{-x})/x ; B/h^2 = (1 - e^{-x}(1+x))/x^2
    ex = np.exp(-xd)
    a[~small] = (1.0 - ex) / xd
    b[~small] = (1.0 - ex * (1.0 + xd)) / xd**2
    return a, b


@lru_cache(maxsize=4)
def _exp_kernel(grid_key, xi):
    """Per-(grid, xi) data of the exp-kernel recurrences, keyed on the grid's
    bytes so equal grids share one entry and a grid changed in place misses.

    Returns ``(h, ah, bh, upper, lower)``: the spacings, the scaled kernel
    coefficients, and the LAPACK band storage (kd = 1, unit diagonal) of the
    bidiagonal systems with -e^{-xi h} beside the diagonal, above it for the
    backward recurrence and below it for the forward one.  All arrays are
    read-only.
    """
    grid = np.frombuffer(grid_key, dtype=float)
    h = np.diff(grid)
    x = xi * h
    ah, bh = _exp_kernel_coeffs(x)
    off = -np.exp(-x)
    upper = np.ones((2, grid.size), dtype=complex, order="F")
    upper[0, 1:] = off
    lower = np.ones((2, grid.size), dtype=complex, order="F")
    lower[1, :-1] = off
    for arr in (h, ah, bh, upper, lower):
        arr.flags.writeable = False
    return h, ah, bh, upper, lower


def _kernel_for(grid, xi):
    return _exp_kernel(np.asarray(grid, dtype=float).tobytes(), complex(xi))


def _unit_bidiagonal_solve(band, rhs, uplo):
    out, info = ztbtrs(band, rhs, uplo=uplo, diag="U", overwrite_b=1)
    if info != 0:
        raise TswaveError(f"banded exp-kernel solve failed: ztbtrs info = {info}")
    return out


def backward_exp_integral(vals, grid, xi, tail_rate=0.0):
    """I(Y_i) = int_{Y_i}^inf e^{xi (Y_i - Y'')} vals(Y'') dY'' for Re xi > 0.

    Piecewise-linear integrand with the exponential kernel handled exactly;
    the recurrence I_i = e^{-xi h_i} I_{i+1} + local_i runs backward so every
    factor decays, and is solved as one upper unit-bidiagonal system.
    """
    vals = np.asarray(vals, dtype=complex)
    h, ah, bh, upper, _ = _kernel_for(grid, xi)
    # int_0^h e^{-xi s}(v_i + (v_{i+1}-v_i) s/h) ds = h*(v_i ah) + h*(v_{i+1}-v_i) bh
    rhs = np.empty(vals.shape, dtype=complex)
    rhs[:-1] = h * (vals[:-1] * ah + (vals[1:] - vals[:-1]) * bh)
    rhs[-1] = vals[-1] / (xi + tail_rate)
    return _unit_bidiagonal_solve(upper, rhs, "U")


def forward_exp_integral(vals, grid, xi):
    """u(Y_i) = int_0^{Y_i} e^{-xi (Y_i - Y')} vals(Y') dY' for Re xi > 0.

    The recurrence u_i = e^{-xi h_{i-1}} u_{i-1} + local_{i-1} from u_0 = 0 is
    solved as one lower unit-bidiagonal system.
    """
    vals = np.asarray(vals, dtype=complex)
    h, ah, bh, _, lower = _kernel_for(grid, xi)
    # int_0^h e^{-xi(h-s)} (v_i + (v_{i+1}-v_i) s/h) ds  with sigma = h-s:
    #   = v_{i+1} * h*ah - (v_{i+1}-v_i) * h*bh
    rhs = np.empty(vals.shape, dtype=complex)
    rhs[0] = 0.0
    rhs[1:] = h * (vals[1:] * ah - (vals[1:] - vals[:-1]) * bh)
    return _unit_bidiagonal_solve(lower, rhs, "L")
