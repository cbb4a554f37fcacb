"""Discretized resolvent solvers with Navier-slip rows and their alternation.

The fourth-order stream-function equation is written in the intermediate
variable omega = (dYY - alpha^2) Phi, which makes the Navier-slip row trivial
(omega(0) = 0) and keeps every block second order.  Two splittings of the
full operator are assembled: a diffusion-dominated one whose leftover is the
magnetic coupling in divergence form, and a divergence-form one whose
leftover decays like the background shear.  Alternating their solves
(``OSIteration``) is the paper's construction of the exact resolvent; it is
kept as the audited construction and not called by the program.  The
remainder solves behind the exact dispersion function factor the full
operator once per wave speed and solve both remainders from that one LU;
the boundary slope of the remainder corrects the approximate dispersion
function to the exact one.

Every block couples only nodes i - 1, i, i + 1, so with the unknowns
interleaved node by node as (Phi_i, omega_i, Psi_i) each 3N x 3N system is
banded; it is written in LAPACK band form straight from the difference
stencils and the profile arrays, and factored there (zgbtrf / zgbtrs).
A ``DiscreteBVP`` holds the state of its grid that every wave speed on it
reuses: the stencils, the profile arrays and the operators as A0 + c A1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dispersion, fastmode, magnetic, slowmode
from .errors import NonContraction, NonConvergence, SingularSystem, TswaveError
from .numerics import diff_matrix, flapack, graded_grid, l2_norm, trap_weights
from .profile import profile_arrays

__all__ = [
    "DiscreteBVP",
    "IterationTrace",
    "build_bvp",
    "OSIteration",
    "remainder_and_gamma",
]

_COND_LIMIT = 1e12
_NOISE_FLOOR = 1e-13
_MAX_ALTERNATIONS = 40      # alternation steps before NonConvergence


@dataclass
class DiscreteBVP:
    """A grid with its weights and boundary condition, and the state that
    calls at every wave speed on it share, built on first read: the
    stencils, the profile arrays and, in ``operators``, the ``_Banded``
    operator of each (params without c, splitting).  The grid is not to
    change once state is built; the shared arrays are read-only."""

    grid: np.ndarray
    weights: np.ndarray
    boundary: str = "navier"
    operators: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self):
        return self.grid.size

    @cached_property
    def d1(self):
        """First-difference stencil of the grid."""
        return diff_matrix(self.grid, 1)

    @cached_property
    def d2(self):
        """Second-difference stencil of the grid."""
        return diff_matrix(self.grid, 2)

    @cached_property
    def profile(self):
        """The ``ProfileArrays`` of the grid, read-only."""
        prof = profile_arrays(self.grid)
        for arr in prof:
            arr.flags.writeable = False
        return prof


@dataclass
class IterationTrace:
    e_norms: list = field(default_factory=list)
    converged: bool = False

    @property
    def ratios(self):
        return [b / a for a, b in zip(self.e_norms, self.e_norms[1:]) if a > 0.0]


def build_bvp(params, n_nodes=1600, y_max=None, boundary="navier"):
    """Graded grid resolving both the outer layer and the viscous sub-layer."""
    if boundary not in ("navier", "noslip"):
        raise ValueError("boundary must be 'navier' or 'noslip'")
    if y_max is None:
        y_max = params.far_field
    if params.is_eighth:
        scale = params.n ** (-1.0 / 3.0)
    else:
        scale = min(params.n ** (-1.0 / 3.0), params.alpha ** (1.0 + params.nu0))
    grid = graded_grid(n_nodes, y_max, cluster_scale=scale)
    return DiscreteBVP(grid=grid, weights=trap_weights(grid), boundary=boundary)


class _Banded(NamedTuple):
    """Operator A(c) = band0 + c * band1 in LAPACK band storage: 2 kl + ku + 1
    rows in Fortran order, entry (r, j) at row kl + ku + r - j, the first kl
    rows left zero for the LU's fill-in."""

    band0: np.ndarray
    band1: np.ndarray
    kl: int
    ku: int

    def at(self, c):
        band = self.band1 * c
        band += self.band0
        return band


# position of Phi, omega and Psi among a node's unknowns, and of the omega
# definition, governing and magnetic equations among its rows
_PHI, _OMEGA, _PSI = 0, 1, 2


def _affine_operator(bvp, params, variant):
    """3N x 3N system of one splitting ('os_d', 'os_s', 'full') on the grid
    of ``bvp`` as A0 + c A1 in LAPACK band storage, written from the bvp's
    stencils and profile arrays; ``params`` carries no wave speed.

    Equation e of node i on unknown u of node i + s sits at offset
    e - u - 3 s from the diagonal: kl = 5 (magnetic equation on Phi_{i-1}),
    ku = 3, 4 once the Psi coupling enters, 5 with the no-slip wall row.
    The wave speed enters through the (U_s - c_hat) diagonal of the omega
    block, the i alpha (U_s - c) diagonal of the magnetic block and, in the
    'os_s' and 'full' variants, the (alpha/n) c d_Y part of the Psi coupling.
    Those variants add the first-slot action of the expanded divergence terms
    d_Y R1 + i alpha R2 on (Phi, Psi); 'os_s' adds the shear transport
    U_s' d_Y + U_s'' on Phi.
    """
    N, boundary = bvp.n, bvp.boundary
    a, n, se = params.alpha, params.n, params.sqrt_eps
    kl = 5
    ku = 5 if boundary == "noslip" else 3 if variant == "os_d" else 4
    band0 = np.zeros((2 * kl + ku + 1, 3 * N), dtype=complex, order="F")
    band1 = np.zeros_like(band0)

    def put(band, eq, var, re, im=(0.0, 0.0, 0.0)):
        """Entries of equation ``eq`` at the interior nodes i on the unknown
        ``var`` of node i + s: one coupling's real and imaginary parts by
        shift s = -1, 0, 1, with ``None`` in ``re`` for no entry."""
        for s, r, i in zip((-1, 0, 1), re, im):
            if r is not None:
                row = band[kl + ku + eq - var - 3 * s, var::3]
                row.real[1 + s:N - 1 + s] = r
                row.imag[1 + s:N - 1 + s] = i

    d1, d2 = bvp.d1, bvp.d2
    # profile arrays at the interior nodes, which the stencils' rows cover
    us, dus, d2us, hs, dhs, d2hs = (x[1:-1] for x in bvp.profile)
    lap = d2.w - [[0.0], [a**2], [0.0]]          # d_YY - alpha^2, by shift
    inv_n = 1.0 / n
    # omega definition: (d_YY - alpha^2) Phi - omega
    put(band0, _PHI, _PHI, lap)
    put(band0, _PHI, _OMEGA, (None, -1.0, None))
    # governing equation: (i/n)(d_YY - alpha^2) omega + (U_s - i/n - c) omega
    # - U_s'' Phi, plus the couplings of the variant
    put(band0, _OMEGA, _OMEGA, (0.0, us, 0.0),
        (lap[0] * inv_n, lap[1] * inv_n - inv_n, lap[2] * inv_n))
    put(band1, _OMEGA, _OMEGA, (None, -1.0, None))
    if variant == "os_d":
        put(band0, _OMEGA, _PHI, (None, -d2us, None))
    else:
        # (a/n)(H_s' + H_s d_Y) - i a^2/n on Phi
        phi = ((a / n) * hs) * d1.w
        phi[1] = -d2us + ((a / n) * dhs + phi[1])
        if variant == "os_s":
            shear = dus * d1.w
            shear[1] += d2us
            phi += shear
        put(band0, _OMEGA, _PHI, phi, (0.0, -(a**2 / n), 0.0))
        # -sqrt(eps) H_s d_YY + sqrt(eps) H_s'' - (a/n)(U_s' + (U_s - c) d_Y)
        # + a^2 sqrt(eps) H_s on Psi
        sh, au = -se * hs, (a / n) * us
        psi = sh * d2.w - au * d1.w
        # the diagonal adds H_s'' and U_s' between its two stencil terms
        psi[1] = (sh * d2.w[1] + se * d2hs - (a / n) * dus
                  - au * d1.w[1]) + (a**2 * se) * hs
        put(band0, _OMEGA, _PSI, psi)
        put(band1, _OMEGA, _PSI, (a / n) * d1.w)
    # magnetic equation: -(i a H_s + d_Y) Phi - (d_YY - alpha^2) Psi
    # + i a (U_s - c) Psi
    put(band0, _PSI, _PHI, -d1.w, (0.0, -(a * hs), 0.0))
    put(band0, _PSI, _PSI, -lap, (0.0, us * a, 0.0))
    put(band1, _PSI, _PSI, (None, 0.0, None), (0.0, -a, 0.0))
    # boundary rows: Phi, omega and Psi vanish at both ends, except that the
    # one-sided d_Y Phi(0) = 0 replaces omega(0) = 0 at a no-slip wall
    ends = [0, 1, 2, 3 * N - 3, 3 * N - 2, 3 * N - 1]
    if boundary == "noslip":
        ends.remove(1)
        cols = np.array([0, 3, 6])
        band0[kl + ku + 1 - cols, cols] = d1.first
    band0[kl + ku, ends] = 1.0
    band0.flags.writeable = band1.flags.writeable = False
    return _Banded(band0, band1, kl, ku)


def _band_at(params, bvp, variant):
    """(band, kl, ku) of the requested splitting ('os_d', 'os_s', 'full') at
    the wave speed of ``params``, from the operator ``bvp`` holds for it."""
    params._need_c()
    key = (replace(params, c=None), variant)
    op = bvp.operators.get(key)
    if op is None:
        op = bvp.operators[key] = _affine_operator(bvp, *key)
    return op.at(params.c), op.kl, op.ku


def _rhs(bvp, q1, q2):
    """Block-order right-hand side (0, q1, q2) with the six boundary rows
    zeroed; sources stacked on a leading axis give stacked right-hand sides."""
    N = bvp.n
    rhs = np.zeros(np.shape(q1)[:-1] + (3 * N,), dtype=complex)
    rhs[..., N:2 * N] = q1
    rhs[..., 2 * N:] = q2
    rhs[..., [N, 2 * N - 1, 2 * N, 3 * N - 1]] = 0.0
    return rhs


class _BandLU(NamedTuple):
    """LAPACK banded LU factors (zgbtrf) of one system and its 1-norm."""

    lu: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int
    norm1: float

    def solve(self, b, trans=0):
        """x with A x = b (``trans=0``) or A^H x = b (``trans=2``)."""
        return flapack().zgbtrs(self.lu, self.kl, self.ku, b, self.piv, trans=trans)[0]


def splu(band, kl, ku):
    """Banded LU factors of ``band`` (overwritten); the one factorization
    entry point, whose calls perfbench counts."""
    norm1 = float(np.max(np.abs(band[kl:]).sum(axis=0)))     # before zgbtrf
    lu, piv, info = flapack().zgbtrf(band, kl, ku, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"factor is exactly singular (zgbtrf info = {info})")
    return _BandLU(lu, piv, kl, ku, norm1)


def _estimate_condition(lu, first=None):
    """Hager-style 1-norm condition estimate from the factorization.

    ``first`` is the solve of the estimate's first step, A y = (1/n, ...,
    1/n), when the caller has made it as one more column of another solve;
    it has the bits of that step's own solve.

    LAPACK's band estimator ``zgbcon`` (scipy's ``_flapack.zgbcon``) was
    measured against this loop and not taken: it gave the same estimate
    (ratio 1.0000 at A = 2 with eps = 1e-12 and 1e-10, at A = 4 with
    eps = 1e-20 and 1e-24, N = 1600) but took 40-85 ms per factorization
    against 1.2-3.1 ms for this loop (scipy 1.17, 2-vCPU x86_64).
    """
    n = lu.lu.shape[1]
    x = np.full(n, 1.0 / n, dtype=complex)
    est = 0.0
    for step in range(6):
        y = first if step == 0 and first is not None else lu.solve(x)
        est = float(np.sum(np.abs(y)))
        ay = np.abs(y)
        xi = np.divide(y, ay, out=np.ones_like(y), where=ay > 1e-280)
        z = lu.solve(xi, trans=2)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.real(np.vdot(x, z)) + 1e-300:
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    return lu.norm1 * est


class _Factorized:
    """Banded LU of one system ('os_d', 'os_s', 'full') at the wave speed of
    ``params``, refused with ``SingularSystem`` unless its Hager estimate
    ``cond`` is at most ``_COND_LIMIT`` (a NaN estimate is refused too).

    With ``sources`` (q1, q2) the system is solved for them too, and
    ``solution`` holds the grid arrays ``solve`` returns; the first step of
    the Hager estimate rides along as one more column of that zgbtrs call.
    """

    def __init__(self, params, bvp, variant, sources=None):
        try:
            self.lu = splu(*_band_at(params, bvp, variant))
        except RuntimeError as exc:
            raise SingularSystem(f"{variant} factorization failed: {exc}") from exc
        first = None
        if sources is not None:
            self.solution, first = self._solve(bvp, *sources, hager_column=True)
        self.cond = _estimate_condition(self.lu, first)
        if math.isnan(self.cond):
            raise SingularSystem(f"{variant} condition estimate {self.cond} is not finite")
        if self.cond > _COND_LIMIT:
            raise SingularSystem(f"{variant} condition estimate {self.cond:.2e} "
                                 f"exceeds {_COND_LIMIT:.0e}")

    def solve(self, bvp, q1, q2):
        """Grid arrays (phi, omega, psi) of the solution for the sources
        (q1, q2).  Sources of shape (k, N) are solved as the k columns of one
        zgbtrs call, and each returned array then has shape (k, N)."""
        return self._solve(bvp, q1, q2)[0]

    def _solve(self, bvp, q1, q2, hager_column=False):
        """``solve``, and with ``hager_column`` the solution of the Hager
        estimate's first step from one more column of the same call."""
        N = bvp.n
        rhs = _rhs(bvp, q1, q2)
        # block order b N + i to node order 3 i + b, one column per source
        cols = np.swapaxes(rhs.reshape(-1, 3, N), 1, 2).reshape(-1, 3 * N).T
        if hager_column:
            cols = np.column_stack([cols, np.full(3 * N, 1.0 / (3 * N), dtype=complex)])
        x = self.lu.solve(cols)
        first = x[:, -1] if hager_column else None
        x = x[:, :rhs.size // (3 * N)].T.reshape(rhs.shape[:-1] + (N, 3))
        return tuple(np.ascontiguousarray(np.moveaxis(x, -1, 0))), first


def _sample_sources(q1, q2, bvp):
    def vals(q):
        if q is None:
            return np.zeros(bvp.n, dtype=complex)
        return np.asarray(q, dtype=complex)

    return vals(q1), vals(q2)


def _inv_sqrt_curvature(d2us):
    """|U_s''|^{-1/2}, infinite where U_s'' underflows (past Y ~ 745);
    ``l2_norm`` skips the weight at zero values, so those nodes add zero."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(np.abs(d2us))


class OSIteration:
    """Alternating solves of the two splittings at fixed wave speed.

    This is the paper's construction of the exact resolvent, kept as the
    audited construction: the tests check its contraction and compare its
    limit with the one-LU solve of the full operator that the program uses.
    Factorizations are done once per instance and reused across the
    alternation steps and both remainder problems.  The operators as
    A0 + c A1 and the profile arrays are the bvp's, so an instance costs
    two banded LUs and their condition estimates.
    """

    def __init__(self, params, bvp):
        params._need_c()
        self.params = params
        self.bvp = bvp
        self.w_inv_sqrt = _inv_sqrt_curvature(bvp.profile.d2us)
        self.fact_d = _Factorized(params, bvp, "os_d")
        self.fact_s = _Factorized(params, bvp, "os_s")

    def coupling(self, phi, psi):
        """The diffusion splitting's leftover: the first-slot action of the
        expanded divergence terms d_Y R1 + i alpha R2 on (Phi, Psi)."""
        p, bvp, pr = self.params, self.bvp, self.bvp.profile
        a, n, se = p.alpha, p.n, p.sqrt_eps
        return ((a / n) * (pr.dhs * phi + pr.hs * (bvp.d1 @ phi))
                - (1j * a**2 / n) * phi
                + se * (pr.d2hs * psi - pr.hs * (bvp.d2 @ psi))
                - (a / n) * (pr.dus * psi + (pr.us - p.c) * (bvp.d1 @ psi))
                + a**2 * se * pr.hs * psi)

    def transport(self, xi):
        """The divergence splitting's leftover U_s' d_Y xi + U_s'' xi."""
        pr = self.bvp.profile
        return pr.dus * (self.bvp.d1 @ xi) + pr.d2us * xi

    def _e_norm(self, phi, omega, psi, q2=None):
        """Weighted vorticity + velocity + magnetic norm of one step."""
        p = self.params
        bvp = self.bvp
        a = p.alpha
        wts = bvp.weights
        dphi = bvp.d1 @ phi
        dpsi = bvp.d1 @ psi
        pr = bvp.profile
        d2psi_m_a2 = (1j * a * (pr.us - p.c) * psi
                      - 1j * a * pr.hs * phi - dphi
                      - (np.zeros_like(phi) if q2 is None else q2))
        return (l2_norm(omega, wts, self.w_inv_sqrt, noise_floor=_NOISE_FLOOR)
                + math.hypot(l2_norm(dphi, wts), a * l2_norm(phi, wts))
                + l2_norm(d2psi_m_a2, wts)
                + math.sqrt(a) * math.hypot(l2_norm(dpsi, wts), a * l2_norm(psi, wts))
                + a * l2_norm(psi, wts))

    def iterate(self, f1, f2, tol=1e-8, entry="d"):
        """Solve the full system by alternation; returns grid arrays
        (phi, omega, psi) of the summed solution plus the trace."""
        f1v, f2v = _sample_sources(f1, f2, self.bvp)
        trace = IterationTrace()
        total = [np.zeros(self.bvp.n, dtype=complex) for _ in range(3)]
        if entry == "s":
            xi0, wxi0, th0 = self.fact_s.solve(self.bvp, f1v, f2v)
            for t, v in zip(total, (xi0, wxi0, th0)):
                t += v
            f1v = self.transport(xi0)
            f2v = np.zeros_like(f2v)
        elif entry != "d":
            raise ValueError("entry must be 'd' or 's'")
        phi, omega, psi = self.fact_d.solve(self.bvp, f1v, f2v)
        e0 = self._e_norm(phi, omega, psi, q2=f2v)
        trace.e_norms.append(e0)
        for t, v in zip(total, (phi, omega, psi)):
            t += v
        if e0 == 0.0:
            trace.converged = True
            return tuple(total) + (trace,)
        rising = 0
        zeros = np.zeros(self.bvp.n, dtype=complex)
        for _ in range(_MAX_ALTERNATIONS):
            h1 = -self.coupling(phi, psi)
            xi, wxi, theta = self.fact_s.solve(self.bvp, h1, zeros)
            q1 = self.transport(xi)
            phi, omega, psi = self.fact_d.solve(self.bvp, q1, zeros)
            ek = self._e_norm(phi, omega, psi)
            trace.e_norms.append(ek)
            for t, v, u in zip(total, (xi, wxi, theta), (phi, omega, psi)):
                t += v + u
            if ek < tol * e0:
                trace.converged = True
                return tuple(total) + (trace,)
            if len(trace.e_norms) >= 2 and trace.e_norms[-1] >= trace.e_norms[-2]:
                rising += 1
                if rising >= 2:
                    raise NonContraction(
                        f"alternation norms rising: {trace.e_norms[-3:]}")
            else:
                rising = 0
        raise NonConvergence(
            f"alternation did not reach {tol:.1e} relative in {_MAX_ALTERNATIONS} steps")


def assemble_error_terms(c, params, bvp):
    """All approximate-mode error arrays on the grid, plus the approximate
    dispersion value and the participating modes: each mode as its arrays on
    the grid by derivative order, and the slow mode's wall values.

    ``c`` is one wave speed or a 1-D array of them, a block, and one wave
    speed is the block of one point.  Each quantity is computed once for the
    block, as a (k, N) array with a row per point, from the point's scalars
    formed on their own; every row has the bits of its point's own assembly.
    For an array ``c`` the error arrays and modes come back with that point
    axis first and the dispersion and wall values as (k,) arrays.
    """
    points = tuple(params.with_c(v) for v in np.atleast_1d(c))
    p = points[0]
    grid = bvp.grid
    phi0, dphi0 = slowmode.boundary_values(p, c_hat=np.array([q.c_hat for q in points]))
    wall = [complex(v) for v in phi0]       # Phi_app^s(0) of each point

    if p.is_eighth:
        gamma0_val, (phi_f, psi_f) = dispersion.gamma0_and_fast_pair(points, grid)
        phi_last = None
    else:
        hier = fastmode.ExpFastHierarchy(points, grid=grid)
        phi_f = tuple(hier.sum_arrays("Phi", o) for o in range(2))
        psi_f = tuple(hier.sum_arrays("Psi", o) for o in range(2))
        phi_last = (hier.phi_levels[-1], hier.dphi_levels[-1])
        gamma0_val = dispersion.gamma0_of_hierarchy(phi0, dphi0, hier)

    prof = bvp.profile
    slow_pass = slowmode._slow_pass(grid, prof, points)
    slow = slow_pass.phi_app[:2]
    # grid[0] = 0: the wall value of the fast mode's magnetic part
    psi_s = magnetic.build_psi_app_s(points, slow, psi_f[0][:, 0], wall, grid, prof)

    arrays = {f"e{k}s": slowmode.slow_errors(k, prof, points, psi_s, slow_pass)
              for k in (1, 2, 3)}
    arrays.update(zip(("e1f", "e2f", "e3f", "ff"), fastmode.fast_errors(
        grid, prof, points, wall, phi_f, psi_f, phi_last=phi_last)))
    modes = {"slow": slow, "phi_f": phi_f, "psi_f": psi_f, "psi_s": psi_s,
             "phi0": phi0, "dphi0": dphi0}
    out = arrays, gamma0_val, modes
    return out if np.ndim(c) else _point(out, 0)


def _point(result, j):
    """Point j of a block's result: row j of each array, nested in dicts and
    tuples, with a row that is a single value as a Python number."""
    if isinstance(result, dict):
        return {key: _point(v, j) for key, v in result.items()}
    if isinstance(result, tuple):
        return tuple(_point(v, j) for v in result)
    row = result[j]
    return row.item() if np.ndim(row) == 0 else row


def error_norms(arrays, bvp):
    """L2 / weighted-L2 norms of the assembled error arrays.

    The e3 groups are weighted by |U_s''|^{-1/2}.  Past Y ~ 745 the shear
    curvature U_s'' = -e^{-Y} underflows to zero, and the e3 arrays vanish
    there as well; such a node contributes zero to the integral of
    |v|^2 / |U_s''| instead of 0 * inf = NaN.  A nonzero value at a node
    where U_s'' underflows still makes the norm infinite.
    """
    wts = bvp.weights
    w_inv_sqrt = _inv_sqrt_curvature(bvp.profile.d2us)
    return {
        "e1s_l2": l2_norm(arrays["e1s"], wts),
        "e2s_l2": l2_norm(arrays["e2s"], wts),
        "e3s_l2w": l2_norm(arrays["e3s"], wts, w_inv_sqrt),
        "e1f_l2": l2_norm(arrays["e1f"], wts),
        "e2f_l2": l2_norm(arrays["e2f"], wts),
        "e3f_l2w": l2_norm(arrays["e3f"], wts, w_inv_sqrt),
        "ff_l2": l2_norm(arrays["ff"], wts),
    }


def _sources(arrays, params, bvp):
    """Sources (q1, q2) of the two remainder solves from the error arrays,
    one row per remainder (after the point axis of a block's arrays).

    The first remainder absorbs the strongly decaying error pair, the second
    the divergence-form errors.  Both solve the full operator, factored once
    per wave speed, as the columns of one banded solve."""
    div_source = (bvp.d1 @ (arrays["e1s"] + arrays["e1f"])
                  + 1j * params.alpha * (arrays["e2s"] + arrays["e2f"]))
    return (np.stack([arrays["e3s"] + arrays["e3f"], div_source], axis=-2),
            np.stack([arrays["ff"], np.zeros_like(arrays["ff"])], axis=-2))


# grid nodes summed over the points of one block of wave speeds in
# ``remainder_and_gamma`` (4 points at N = 1600, 16 at N = 400): it bounds
# the memory a block holds, about 0.7 MB per point at N = 1600.  Blocks of
# 1, 4, 6 and 8 points gave the benchmark's ``full_os`` workload (N = 1600)
# a peak RSS of 46.2, 48.3, 49.8 and 50.6 MB (47.2 MB before blocks), and
# blocks past four ran no faster
_BLOCK_NODES = 4 * 1600


def remainder_and_gamma(c, params, bvp):
    """Exact dispersion value Gamma(c) = Gamma0(c) - boundary slopes of the
    two remainder solves, plus diagnostics.

    ``c`` is one wave speed, or a 1-D array of them, which is evaluated in
    blocks of at most ``_BLOCK_NODES`` grid nodes: Gamma comes back as an
    array and each diagnostic with a leading point axis.  Every value has
    the bits of its point's own evaluation.  When points fail, the first
    failing point in order raises its own exception.
    """
    cs = np.atleast_1d(np.asarray(c, dtype=complex))
    size = max(1, _BLOCK_NODES // bvp.n)
    rows = [row for start in range(0, cs.size, size)
            for row in _gamma_rows(cs[start:start + size], params, bvp)]
    if np.ndim(c) == 0:
        return rows[0]
    diag = {key: np.array([d[key] for _, d in rows]) for key in rows[0][1]}
    return diag["gamma"], diag


def _gamma_rows(cs, params, bvp):
    """(Gamma, diagnostics) of each wave speed of the block ``cs``: the
    error terms assembled as one block, then each point's full operator
    factored and its remainders solved on their own.  A block in which a
    point fails (``TswaveError`` or ``ValueError``, the errors a point's own
    evaluation raises) is evaluated again point by point, so that the first
    failing point raises the exception of its own evaluation."""
    try:
        arrays, gamma0_val, _ = assemble_error_terms(cs, params, bvp)
        q1, q2 = _sources(arrays, params, bvp)
        del arrays      # only the sources stay alive through the solves
        return [_gamma_row(g0.item(), params.with_c(v), bvp, (s1, s2))
                for g0, v, s1, s2 in zip(gamma0_val, cs, q1, q2)]
    except (TswaveError, ValueError):
        if cs.size == 1:
            raise
        return [row for v in cs for row in _gamma_rows(v[None], params, bvp)]


def _gamma_row(gamma0_val, p, bvp, sources):
    """Gamma at the wave speed of ``p`` from Gamma0 there and the sources of
    its remainder solves, with its diagnostics."""
    fact = _Factorized(p, bvp, "full", sources=sources)
    slope1, slope2 = (bvp.d1.wall(phi_k) for phi_k in fact.solution[0])
    gamma = gamma0_val - slope1 - slope2
    return gamma, {
        "gamma0": gamma0_val,
        "gamma": gamma,
        "remainder_slopes": (slope1, slope2),
        "gap": abs(gamma - gamma0_val),
        "condition": fact.cond,
    }


def build_mode(c, params, bvp, full_os=False):
    """Combined mode (Phi, Psi) at wave speed c on the grid of ``bvp``, each
    as its arrays [order 0, order 1].

    Without ``full_os`` this is the approximate growing mode (zero stream
    functions at the wall by construction); with it the two remainder solves
    are subtracted, so the no-slip defect at the wall is Gamma(c) itself.
    """
    arrays, _, modes = assemble_error_terms(c, params, bvp)
    if full_os:
        r_phi, _, r_psi = _Factorized(params.with_c(c), bvp, "full",
                                      sources=_sources(arrays, params, bvp)).solution
    phi0 = modes["phi0"]
    phi_arrays = [modes["slow"][k] - phi0 * modes["phi_f"][k] for k in range(2)]
    psi_arrays = [modes["psi_s"][k] - phi0 * modes["psi_f"][k] for k in range(2)]
    if full_os:
        phi_arrays[0] = phi_arrays[0] - r_phi[0] - r_phi[1]
        phi_arrays[1] = phi_arrays[1] - bvp.d1 @ (r_phi[0] + r_phi[1])
        psi_arrays[0] = psi_arrays[0] - r_psi[0] - r_psi[1]
        psi_arrays[1] = psi_arrays[1] - bvp.d1 @ (r_psi[0] + r_psi[1])
    return phi_arrays, psi_arrays
