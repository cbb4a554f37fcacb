"""Shared complex-analysis and grid utilities.

Adaptive winding-number counting on circles, damped complex Newton iteration,
graded grids with sub-layer clustering, 3-point difference stencils, the
cubic Hermite interpolant of grid values and slopes, trapezoid norms and
integrals, the exponential-kernel cumulative integrals used by the
mild formulations of the second-order solvers (on an ``ExpKernel`` that the
caller builds once and hands to each integral), and the binding of the
LAPACK band routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DerivativeBreakdown,
    NonConvergence,
    NonResolvable,
    TswaveError,
    ZeroOnContour,
)

__all__ = [
    "Circle",
    "RootTrace",
    "winding_samples",
    "newton_root",
    "graded_grid",
    "trap_weights",
    "Stencil",
    "diff_matrix",
    "hermite",
    "l2_norm",
    "cumulative_trapezoid",
    "tail_trapezoid",
    "forward_exp_integral",
    "backward_exp_integral",
    "pointwise",
    "ExpKernel",
    "exp_kernel",
    "flapack",
]


def pointwise(fn, x):
    """``fn`` of each entry of ``x``, one entry per point of a block: each
    ``fn(x_j)`` is computed on its own, as a scalar, and the values come
    back stacked into a (k, 1) complex column.

    Grid arithmetic with the column rounds each row as a scalar rounds a
    one-point array; a column formed by array arithmetic can round
    differently (numpy's complex multiply and square are not Python's).
    """
    return np.array([fn(v) for v in x], dtype=complex).reshape(-1, 1)


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


_MAX_WINDING_SAMPLES = 65536  # boundary samples before NonResolvable


def _values(g, z):
    """``g`` on the ndarray of complex points ``z``, one value per point."""
    z = np.asarray(z, dtype=complex)
    vals = np.asarray(g(z), dtype=complex)
    if vals.shape != z.shape:
        raise ValueError(f"dispersion function gave values of shape {vals.shape} "
                         f"for points of shape {z.shape}")
    return vals


def winding_samples(g, circle, init_samples=64):
    """Winding number of ``g`` on ``circle`` plus the boundary samples used to
    certify it.  ``g`` takes an ndarray of points and returns one value per
    point; each round of samples is one call.

    Returns ``(winding, thetas, values)``.  Samples are inserted adaptively
    until every consecutive argument increment is below pi/2, which makes the
    discrete branch tracking of arg g unambiguous.  The sample phases carry a
    half-step offset so that symmetry-aligned boundary points (where g may be
    singular, e.g. a certification disk tangent to a branch line) are never
    evaluated exactly.

    Raises ``NonResolvable`` when a sample is not finite, naming its theta
    and value (a NaN or infinite value carries no argument), when the
    samples would exceed ``_MAX_WINDING_SAMPLES`` or when the argument sum is
    not an integer, and ``ZeroOnContour`` when some |g| is below 1e-13 of
    the largest.
    """
    if init_samples < 16:
        raise ValueError("init_samples must be at least 16")
    offset = math.pi / init_samples
    thetas = offset + np.linspace(0.0, 2.0 * math.pi, init_samples + 1)
    vals = _values(g, circle.point(thetas))
    while True:
        nonfinite = np.flatnonzero(~np.isfinite(vals))
        if nonfinite.size:
            idx = nonfinite[0]
            raise NonResolvable(f"g = {vals[idx]} at theta = {thetas[idx]:.6f} "
                                f"is not finite")
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
        if thetas.size + bad.size > _MAX_WINDING_SAMPLES:
            raise NonResolvable(
                f"argument continuation not resolved with {thetas.size} samples")
        mids = (thetas[bad] + thetas[bad + 1]) / 2.0
        mvals = _values(g, circle.point(mids))
        thetas = np.insert(thetas, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    turns = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * math.pi)
    winding = int(round(turns))
    if abs(turns - winding) > 1e-6:
        raise NonResolvable(f"winding sum {turns} is not an integer")
    return winding, thetas, vals


def _difference_step(c):
    return 1e-7 * max(abs(c), 1.0)


def newton_root(g, c0, tol=1e-12, max_iter=40, region=None):
    """Damped complex Newton iteration with central-difference derivative.

    ``g`` takes an ndarray of points and returns one value per point.  The
    derivative step is ``h = 1e-7 * max(|c|, 1)``; each point c goes to ``g``
    together with c + h and c - h as one 3-point array, so an accepted step
    carries the next derivative.  A step is halved until the residual
    decreases (up to 50 halvings).  With a ``region`` (a ``Circle``) the
    iteration stops, unconverged, at the first iterate outside it.  Returns
    ``(root, RootTrace)``.
    """
    trace = RootTrace()

    def evaluate(c):
        """g(c) and the central difference quotient of g at c."""
        h = _difference_step(c)
        vals = _values(g, np.array([c, c + h, c - h]))
        return complex(vals[0]), (complex(vals[1]) - complex(vals[2])) / (2.0 * h)

    c = complex(c0)
    gc, gp = evaluate(c)
    trace.iterates.append(c)
    trace.residuals.append(abs(gc))
    for _ in range(max_iter):
        if abs(gc) <= tol:
            trace.converged = True
            return c, trace
        if region is not None and not region.contains(c):
            return c, trace
        if abs(gp) < 1e-280 or not np.isfinite(gp):
            raise DerivativeBreakdown(f"difference quotient {gp} at c = {c}")
        step = -gc / gp
        lam = 1.0
        while lam > 2 ** -50:
            cand = c + lam * step
            gcand, gp_cand = evaluate(cand)
            if abs(gcand) < abs(gc):
                c, gc, gp = cand, gcand, gp_cand
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


# grid points per cluster scale at the wall: the wall-spacing rule of
# ``graded_grid``
_POINTS_PER_SCALE = 6.0


def graded_grid(n_nodes, y_max, cluster_scale):
    """Strictly increasing grid on [0, y_max] clustered near Y = 0.

    A sinh map is tuned so the first spacing is about
    ``cluster_scale / _POINTS_PER_SCALE``; for coarse targets it degrades to
    a uniform grid.
    """
    if n_nodes < 16:
        raise ValueError("need at least 16 nodes")
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"grid far end must be positive and finite, got {y_max}")
    h0 = cluster_scale / _POINTS_PER_SCALE
    ratio = h0 * (n_nodes - 1) / y_max
    s = np.linspace(0.0, 1.0, n_nodes)
    if ratio >= 1.0:
        return y_max * s
    lo, hi = 1e-9, 60.0
    for _ in range(200):
        gamma = 0.5 * (lo + hi)
        if gamma in (lo, hi):
            break       # lo and hi are adjacent floats: no step changes gamma
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


def _row_sum(w, a, b, c):
    """w[0] a + w[1] b + w[2] c summed from +0 in this order, as a CSR
    matrix-vector product sums a row."""
    return 0.0 + w[0] * a + w[1] * b + w[2] * c


@dataclass(frozen=True)
class Stencil:
    """3-point difference operator on a grid of n nodes.

    Row i = 1..n-2 weighs node i + s by ``w[s + 1, i - 1]``, s = -1, 0, 1,
    from the (3, n-2) array ``w`` of interior weights by shift; the
    one-sided end rows weigh nodes 0, 1, 2 (``first``) and n-3, n-2, n-1
    (``last``).  ``stencil @ v`` gives the same bits as the equal CSR matrix
    applied to the 1-D array v; a (k, n) array is differenced row by row.
    """

    w: np.ndarray
    first: np.ndarray
    last: np.ndarray

    def __matmul__(self, v):
        v = np.asarray(v)
        out = np.empty(v.shape, dtype=np.result_type(self.w, v))
        out[..., 0] = self.wall(v)
        out[..., 1:-1] = _row_sum(self.w, v[..., :-2], v[..., 1:-1], v[..., 2:])
        nodes = np.asarray(v).T     # node first: v[-1] of a 1-D v is a scalar
        out[..., -1] = _row_sum(self.last, nodes[-3], nodes[-2], nodes[-1])
        return out

    def wall(self, v):
        """Row 0 applied to v (to each row of a 2-D v): for order 1 the
        one-sided slope at the wall."""
        nodes = np.asarray(v).T
        return _row_sum(self.first, nodes[0], nodes[1], nodes[2])


def diff_matrix(grid, order):
    """3-point finite-difference ``Stencil`` (order 1 or 2) on a nonuniform grid."""
    hm = np.diff(grid)
    # interior rows i = 1..n-2 with spacings a = h_{i-1}, b = h_i
    a, b = hm[:-1], hm[1:]
    if order == 1:
        interior = (-b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b)))
    else:
        interior = (2.0 / (a * (a + b)), -2.0 / (a * b), 2.0 / (b * (a + b)))
    # one-sided closures at the ends, in node order
    a0, b0, a1, b1 = hm[0], hm[1], hm[-1], hm[-2]
    if order == 1:
        first = [-(2 * a0 + b0) / (a0 * (a0 + b0)), (a0 + b0) / (a0 * b0),
                 -a0 / (b0 * (a0 + b0))]
        last = [a1 / (b1 * (a1 + b1)), -(a1 + b1) / (a1 * b1),
                (2 * a1 + b1) / (a1 * (a1 + b1))]
    else:
        first = [2.0 / (a0 * (a0 + b0)), -2.0 / (a0 * b0), 2.0 / (b0 * (a0 + b0))]
        last = [2.0 / (b1 * (a1 + b1)), -2.0 / (a1 * b1), 2.0 / (a1 * (a1 + b1))]
    return Stencil(np.array(interior), np.array(first), np.array(last))


def hermite(grid, vals, slopes, Y):
    """Cubic Hermite interpolant of the node values ``vals`` with derivatives
    ``slopes`` on ``grid``, at the points ``Y``; 0 past the last node, where
    the grid functions have decayed."""
    Y = np.asarray(Y, dtype=float)
    i = np.clip(np.searchsorted(grid, Y, side="right") - 1, 0, grid.size - 2)
    h = grid[i + 1] - grid[i]
    s = (Y - grid[i]) / h
    r = 1.0 - s
    out = (r * r * ((1.0 + 2.0 * s) * vals[i] + s * h * slopes[i])
           + s * s * ((3.0 - 2.0 * s) * vals[i + 1] - r * h * slopes[i + 1]))
    return np.where(Y <= grid[-1], out, 0.0)


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


def cumulative_trapezoid(vals, grid):
    """Trapezoid cumulative integral from the first node, along the last axis."""
    vals = np.asarray(vals)
    incr = 0.5 * (vals[..., 1:] + vals[..., :-1]) * np.diff(grid, axis=-1)
    out = np.zeros(incr.shape[:-1] + (incr.shape[-1] + 1,), dtype=complex)
    out[..., 1:] = np.cumsum(incr, axis=-1)
    return out


def tail_trapezoid(vals, grid):
    """Trapezoid integral from each node to the last node, along the last
    axis: the integrand is taken to vanish past the grid."""
    cum = cumulative_trapezoid(vals, grid)
    return cum[..., -1:] - cum


def _exp_kernel_coeffs(x, decay):
    """(A, B) with A = int_0^h e^{-xi s} ds, B = int_0^h e^{-xi s} s ds, x = xi*h.

    Returned scaled: A_hat = A/h, B_hat = B/h^2 so that callers multiply back.
    Series branch keeps relative accuracy for small |x|.
    """
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-2
    a, b = np.empty_like(x), np.empty_like(x)
    xs, xd = x[small], x[~small]
    a[small] = 1.0 - xs / 2.0 + xs**2 / 6.0 - xs**3 / 24.0 + xs**4 / 120.0
    b[small] = 0.5 - xs / 3.0 + xs**2 / 8.0 - xs**3 / 30.0 + xs**4 / 144.0
    # A/h = (1 - e^{-x})/x ; B/h^2 = (1 - e^{-x}(1+x))/x^2, e^{-x} = decay
    ex = decay[~small]
    a[~small] = (1.0 - ex) / xd
    # numpy forms ``ex * temporary`` of 256 KiB or more in place with the
    # operands swapped, a complex product that rounds differently
    xd1 = 1.0 + xd
    b[~small] = (1.0 - ex * xd1) / xd**2
    return a, b


class ExpKernel(NamedTuple):
    """Data of the exp-kernel recurrences for a block of k rates xi, one per
    row of (k, N) values, on their grid: the spacings h, the scaled kernel
    coefficients and the LAPACK band storage (kd = 1, unit diagonal) of the
    bidiagonal system with -e^{-xi h} beside the diagonal, above it for the
    backward recurrence and below it for the forward one.  The k systems
    are stacked into one of kN unknowns with zero coupling between them."""

    xi: np.ndarray
    h: np.ndarray
    ah: np.ndarray
    bh: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


def exp_kernel(grid, xi):
    """The ``ExpKernel`` of the tuple of rates ``xi`` on ``grid``, shared or
    a (k, N) grid per rate; each row has the bits of its rate's alone."""
    xi = np.array(xi, dtype=complex)
    h = np.diff(grid, axis=-1)
    x = xi[:, None] * h
    decay = np.exp(-x)
    ah, bh = _exp_kernel_coeffs(x, decay)
    off = -decay
    k, n = off.shape[0], grid.shape[-1]
    upper = np.ones((2, k * n), dtype=complex, order="F")
    lower = np.ones((2, k * n), dtype=complex, order="F")
    # the off-diagonal rows, viewed as one row of n per system
    above, below = upper[0].reshape(k, n), lower[1].reshape(k, n)
    above[:, 0] = below[:, -1] = 0.0
    above[:, 1:] = below[:, :-1] = off
    return ExpKernel(xi, h, ah, bh, upper, lower)


_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """Path of scipy's compiled ``linalg/_flapack`` extension, or None;
    scipy itself is not imported."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@lru_cache(maxsize=None)
def flapack():
    """scipy's compiled LAPACK module, whose ``zgbtrf``, ``zgbtrs`` and
    ``ztbtrs`` the band solves call.

    The extension is loaded from its file under its own name, so the
    ``scipy.linalg`` package init never runs: with scipy's array-API layer
    it costs 0.2-0.3 s and 30 MB of RSS (x86_64, scipy 1.17).  A later
    ``import scipy.linalg`` finds the module in ``sys.modules`` and reuses
    it.  Without the file, ``scipy.linalg.lapack`` serves.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack

        return lapack
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _unit_bidiagonal_solve(band, rhs, uplo):
    """Solve the stacked unit-bidiagonal systems of ``band`` for the rows of
    the (k, N) ``rhs`` (overwritten) as one ztbtrs call; the zero coupling
    between stacked systems keeps each row's bits those of its own solve
    while every row is finite."""
    out, info = flapack().ztbtrs(band, rhs.ravel(), uplo=uplo, diag="U", overwrite_b=1)
    if info != 0:
        raise TswaveError(f"banded exp-kernel solve failed: ztbtrs info = {info}")
    return out.reshape(rhs.shape)


def backward_exp_integral(vals, grid, kern, tail_rate=0.0):
    """I(Y_i) = int_{Y_i}^inf e^{xi (Y_i - Y'')} vals(Y'') dY'' for Re xi > 0.

    Piecewise-linear integrand with the exponential kernel handled exactly;
    the recurrence I_i = e^{-xi h_i} I_{i+1} + local_i runs backward so every
    factor decays, and is solved as one upper unit-bidiagonal system.
    ``vals`` is (k, N) on ``grid``, and each row is integrated with its own
    rate of ``kern``, the ``ExpKernel`` of the grid.
    """
    vals = np.asarray(vals, dtype=complex)
    # int_0^h e^{-xi s}(v_i + (v_{i+1}-v_i) s/h) ds = h*(v_i ah) + h*(v_{i+1}-v_i) bh
    rhs = np.empty(vals.shape, dtype=complex)
    rhs[:, :-1] = kern.h * (vals[:, :-1] * kern.ah
                            + (vals[:, 1:] - vals[:, :-1]) * kern.bh)
    rhs[:, -1] = vals[:, -1] / (kern.xi + tail_rate)
    return _unit_bidiagonal_solve(kern.upper, rhs, "U")


def forward_exp_integral(vals, grid, kern):
    """u(Y_i) = int_0^{Y_i} e^{-xi (Y_i - Y')} vals(Y') dY' for Re xi > 0.

    The recurrence u_i = e^{-xi h_{i-1}} u_{i-1} + local_{i-1} from u_0 = 0 is
    solved as one lower unit-bidiagonal system; ``vals``, ``grid`` and
    ``kern`` are those of ``backward_exp_integral``.
    """
    vals = np.asarray(vals, dtype=complex)
    # int_0^h e^{-xi(h-s)} (v_i + (v_{i+1}-v_i) s/h) ds  with sigma = h-s:
    #   = v_{i+1} * h*ah - (v_{i+1}-v_i) * h*bh
    rhs = np.empty(vals.shape, dtype=complex)
    rhs[:, 0] = 0.0
    rhs[:, 1:] = kern.h * (vals[:, 1:] * kern.ah
                           - (vals[:, 1:] - vals[:, :-1]) * kern.bh)
    return _unit_bidiagonal_solve(kern.lower, rhs, "L")
