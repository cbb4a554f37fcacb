"""Discretized resolvent solvers with Navier-slip rows and their alternation.

The fourth-order stream-function equation is written in the intermediate
variable omega = (dYY - alpha^2) Phi, which makes the Navier-slip row trivial
(omega(0) = 0) and keeps every block second order.  Two splittings of the
full operator are assembled: a diffusion-dominated one whose leftover is the
magnetic coupling in divergence form, and a divergence-form one whose
leftover decays like the background shear.  Alternating their solves yields
the exact resolvent; the boundary slope of the remainder corrects the
approximate dispersion function to the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import dispersion, fastmode, magnetic, slowmode
from .errors import NonContraction, NonConvergence, SingularSystem
from .numerics import boundary_slope, diff_matrix, graded_grid, l2_norm, trap_weights
from .params import mode_from_grid
from .profile import DEFAULT_PROFILE

__all__ = [
    "DiscreteBVP",
    "IterationTrace",
    "build_bvp",
    "OSIteration",
    "remainder_and_gamma",
]

_COND_LIMIT = 1e12
_NOISE_FLOOR = 1e-13
_ALTERNATION_TOL = 1e-8     # relative step norm that ends each remainder solve


@dataclass
class DiscreteBVP:
    grid: np.ndarray
    d1: sparse.csr_matrix
    d2: sparse.csr_matrix
    weights: np.ndarray
    boundary: str = "navier"
    cluster_scale: float = 1.0

    @property
    def n(self):
        return self.grid.size


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
        y_max = max(40.0, 8.0 / params.alpha)
    if params.is_eighth:
        scale = params.n ** (-1.0 / 3.0)
    else:
        scale = min(params.n ** (-1.0 / 3.0), params.alpha ** (1.0 + params.nu0))
    grid = graded_grid(n_nodes, y_max, cluster_scale=scale)
    return DiscreteBVP(grid=grid, d1=diff_matrix(grid, 1), d2=diff_matrix(grid, 2),
                       weights=trap_weights(grid), boundary=boundary,
                       cluster_scale=scale)


class _Affine(NamedTuple):
    """Operator A(c) = a0 + c * a1, both parts on one CSC pattern."""

    a0: sparse.csc_matrix
    a1: sparse.csc_matrix

    def at(self, c):
        return sparse.csc_matrix((self.a0.data + c * self.a1.data, self.a0.indices,
                                  self.a0.indptr), shape=self.a0.shape)


def _affine(m0, m1):
    """``_Affine`` of two sparse matrices on the union of their patterns."""
    pattern = (abs(m0) + abs(m1)).tocsc()     # sums of moduli never cancel
    coo = pattern.tocoo()
    parts = []
    for m in (m0, m1):
        vals = np.asarray(sparse.csr_matrix(m)[coo.row, coo.col], dtype=complex).ravel()
        part = sparse.csc_matrix((vals, pattern.indices, pattern.indptr),
                                 shape=pattern.shape)
        for arr in (part.data, part.indices, part.indptr):
            arr.flags.writeable = False
        parts.append(part)
    return _Affine(*parts)


@dataclass(frozen=True)
class _GridState:
    """Profile arrays and c-free operators of one (grid, params, profile)."""

    us: np.ndarray
    dus: np.ndarray
    d2us: np.ndarray
    hs: np.ndarray
    dhs: np.ndarray
    d2hs: np.ndarray
    d1: sparse.csr_matrix
    d2: sparse.csr_matrix
    a_xi: sparse.csr_matrix      # first-slot magnetic coupling on Phi
    a_theta: _Affine             # first-slot magnetic coupling on Psi
    transport: sparse.csr_matrix
    w_inv_sqrt: np.ndarray


def _state_key(params, bvp, profile):
    """Cache key of the per-grid state: grid bytes, params without c, profile."""
    return bvp.grid.tobytes(), replace(params, c=None), profile


@lru_cache(maxsize=2)
def _grid_state(grid_key, params, profile):
    """Per-(grid, params, profile) arrays shared by every wave speed, keyed on
    the grid's bytes so equal grids share one entry and a grid changed in
    place misses; ``params`` carries no wave speed.  The difference matrices
    are rebuilt from the grid as in ``build_bvp``, so no entry refers back to
    a ``DiscreteBVP``.  The magnetic couplings are the first-slot action of the
    expanded divergence terms d_Y R1 + i alpha R2 on (Phi, Psi); the shear
    transport U_s' d_Y + U_s'' is the divergence-splitting leftover on Phi.
    All arrays are read-only.
    """
    grid = np.frombuffer(grid_key, dtype=float)
    us, dus, d2us = (profile.eval("U", k, grid) for k in range(3))
    hs, dhs, d2hs = (profile.eval("H", k, grid) for k in range(3))
    d1, d2 = diff_matrix(grid, 1), diff_matrix(grid, 2)
    a, n, se = params.alpha, params.n, params.sqrt_eps
    eye = sparse.identity(grid.size, format="csr", dtype=complex)
    dia = sparse.diags
    a_xi = ((a / n) * dia(dhs) @ eye
            + (a / n) * dia(hs) @ d1
            - (1j * a**2 / n) * eye).tocsr()
    # -(a/n) (U_s - c) d_Y splits into its c-free part and c (a/n) d_Y
    a_theta = _affine(-se * dia(hs) @ d2
                      + se * dia(d2hs) @ eye
                      - (a / n) * dia(dus) @ eye
                      - (a / n) * dia(us) @ d1
                      + a**2 * se * dia(hs) @ eye,
                      (a / n) * d1)
    transport = (dia(dus) @ d1 + dia(d2us)).tocsr()
    state = _GridState(us=us, dus=dus, d2us=d2us, hs=hs, dhs=dhs, d2hs=d2hs,
                       d1=d1, d2=d2, a_xi=a_xi, a_theta=a_theta,
                       transport=transport, w_inv_sqrt=_inv_sqrt_curvature(d2us))
    for arr in (us, dus, d2us, hs, dhs, d2hs, state.w_inv_sqrt):
        arr.flags.writeable = False
    for m in (d1, d2, a_xi, transport):
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
    return state


def _grid_state_for(params, bvp, profile):
    return _grid_state(*_state_key(params, bvp, profile))


@lru_cache(maxsize=2)
def _affine_operator(grid_key, boundary, params, profile, variant):
    """3N x 3N system of one splitting ('os_d', 'os_s', 'full') as A0 + c A1.

    The wave speed enters through the (U_s - c_hat) diagonal of the omega
    block, the i alpha (U_s - c) diagonal of the magnetic block and, in the
    'os_s' and 'full' variants, the (alpha/n) c d_Y part of the Psi coupling.
    """
    st = _grid_state(grid_key, params, profile)
    N = st.us.size
    a, n = params.alpha, params.n
    eye = sparse.identity(N, format="csr", dtype=complex)
    zero = sparse.csr_matrix((N, N), dtype=complex)
    dia = sparse.diags
    lap = st.d2 - a**2 * eye

    interior = np.ones(N)
    interior[0] = interior[-1] = 0.0
    keep = dia(interior)

    def with_bc(ops, bc_rows):
        """(c-free, c-coefficient) block rows: the two boundary rows of each
        operator zeroed, then the BC entries added to the c-free part."""
        row0 = [keep @ op0 for op0, _ in ops]
        row1 = [keep @ op1 for _, op1 in ops]
        for col, i, vec in bc_rows:
            bc = sparse.csr_matrix((vec, (np.full(len(vec), i), np.arange(len(vec)))),
                                   shape=(N, N))
            row0[col] = row0[col] + bc
        return row0, row1

    # Block A: omega definition with Phi boundary rows
    rowA = with_bc([(lap, zero), (-eye, zero), (zero, zero)],
                   [(0, 0, [1.0]), (0, N - 1, _unit_at(N, N - 1))])

    # Block B: governing equation in omega; U_s - c_hat = (U_s - i/n) - c
    gov_phi = -dia(st.d2us) @ eye
    gov_psi = (zero, zero)
    if variant in ("os_s", "full"):
        gov_phi = gov_phi + st.a_xi
        gov_psi = st.a_theta
    if variant == "os_s":
        gov_phi = gov_phi + st.transport
    if boundary == "navier":
        bc0 = (1, 0, [1.0])                  # omega(0) = 0
    else:
        slope_row = np.asarray(st.d1[0].todense()).ravel()[:3]
        bc0 = (0, 0, list(slope_row))        # dY Phi(0) = 0 (one-sided)
    rowB = with_bc([(gov_phi, zero), ((1j / n) * lap + dia(st.us - 1j / n), -eye),
                    gov_psi],
                   [bc0, (1, N - 1, _unit_at(N, N - 1))])

    # Block C: magnetic equation with Psi boundary rows
    rowC = with_bc([(-1j * a * dia(st.hs) @ eye - st.d1, zero), (zero, zero),
                    (-lap + 1j * a * dia(st.us), -1j * a * eye)],
                   [(2, 0, [1.0]), (2, N - 1, _unit_at(N, N - 1))])

    blocks = [rowA, rowB, rowC]
    return _affine(sparse.bmat([r[0] for r in blocks], format="csc"),
                   sparse.bmat([r[1] for r in blocks], format="csc"))


def _assemble(params, bvp, profile, variant):
    """3N x 3N system at the wave speed of ``params`` for the requested
    splitting ('os_d', 'os_s', 'full')."""
    params._need_c()
    gridkey, p0, prof = _state_key(params, bvp, profile)
    return _affine_operator(gridkey, bvp.boundary, p0, prof, variant).at(params.c)


def _unit_at(n, i):
    vec = [0.0] * n
    vec[i] = 1.0
    return vec


def _rhs(bvp, q1, q2):
    N = bvp.n
    rhs = np.zeros(3 * N, dtype=complex)
    rhs[N:2 * N] = np.asarray(q1, dtype=complex)
    rhs[2 * N:] = np.asarray(q2, dtype=complex)
    for i in (N, 2 * N - 1, 2 * N, 3 * N - 1):
        rhs[i] = 0.0
    return rhs


def _estimate_condition(matrix, lu):
    """Hager-style 1-norm condition estimate from the factorization."""
    n = matrix.shape[0]
    anorm = float(np.max(np.abs(matrix).sum(axis=0)))
    x = np.full(n, 1.0 / n, dtype=complex)
    est = 0.0
    for _ in range(6):
        y = lu.solve(x)
        est = float(np.sum(np.abs(y)))
        ay = np.abs(y)
        xi = np.divide(y, ay, out=np.ones_like(y), where=ay > 1e-280)
        z = lu.solve(xi, trans="H")
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.real(np.vdot(x, z)) + 1e-300:
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    return anorm * est


class _Factorized:
    def __init__(self, params, bvp, profile, variant):
        self.matrix = _assemble(params, bvp, profile, variant)
        try:
            self.lu = splu(self.matrix)
        except RuntimeError as exc:
            raise SingularSystem(f"{variant} factorization failed: {exc}") from exc
        cond = _estimate_condition(self.matrix, self.lu)
        if cond > _COND_LIMIT:
            raise SingularSystem(
                f"{variant} condition estimate {cond:.2e} exceeds {_COND_LIMIT:.0e}")

    def solve(self, bvp, q1, q2):
        x = self.lu.solve(_rhs(bvp, q1, q2))
        N = bvp.n
        return x[:N], x[N:2 * N], x[2 * N:]


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

    Factorizations are done once per instance and reused across the
    alternation steps and both remainder problems.  Everything that does not
    depend on c (operators as A0 + c A1, profile and coupling arrays) comes
    from the per-grid state, so an instance costs two sparse LUs and their
    condition estimates.
    """

    def __init__(self, params, bvp, profile=DEFAULT_PROFILE):
        params._need_c()
        self.params = params
        self.bvp = bvp
        self.grid_state = _grid_state_for(params, bvp, profile)
        self.fact_d = _Factorized(params, bvp, profile, "os_d")
        self.fact_s = _Factorized(params, bvp, profile, "os_s")
        self.a_theta = self.grid_state.a_theta.at(params.c)

    def _e_norm(self, phi, omega, psi, q2=None):
        """Weighted vorticity + velocity + magnetic norm of one step."""
        p = self.params
        bvp = self.bvp
        a = p.alpha
        wts = bvp.weights
        dphi = bvp.d1 @ phi
        dpsi = bvp.d1 @ psi
        st = self.grid_state
        d2psi_m_a2 = (1j * a * (st.us - p.c) * psi
                      - 1j * a * st.hs * phi - dphi
                      - (np.zeros_like(phi) if q2 is None else q2))
        return (l2_norm(omega, wts, st.w_inv_sqrt, noise_floor=_NOISE_FLOOR)
                + math.hypot(l2_norm(dphi, wts), a * l2_norm(phi, wts))
                + l2_norm(d2psi_m_a2, wts)
                + math.sqrt(a) * math.hypot(l2_norm(dpsi, wts), a * l2_norm(psi, wts))
                + a * l2_norm(psi, wts))

    def iterate(self, f1, f2, tol=1e-8, max_steps=40, entry="d"):
        """Solve the full system by alternation; returns grid arrays
        (phi, omega, psi) of the summed solution plus the trace."""
        f1v, f2v = _sample_sources(f1, f2, self.bvp)
        trace = IterationTrace()
        total = [np.zeros(self.bvp.n, dtype=complex) for _ in range(3)]
        if entry == "s":
            xi0, wxi0, th0 = self.fact_s.solve(self.bvp, f1v, f2v)
            for t, v in zip(total, (xi0, wxi0, th0)):
                t += v
            f1v = self.grid_state.transport @ xi0
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
        for _ in range(max_steps):
            h1 = -(self.grid_state.a_xi @ phi + self.a_theta @ psi)
            xi, wxi, theta = self.fact_s.solve(self.bvp, h1, zeros)
            q1 = self.grid_state.transport @ xi
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
            f"alternation did not reach {tol:.1e} relative in {max_steps} steps")


def assemble_error_terms(c, params, bvp, profile=DEFAULT_PROFILE):
    """All approximate-mode error arrays on the grid, plus the approximate
    dispersion value and the participating modes."""
    p = params.with_c(c)
    grid = bvp.grid

    slow_mode = slowmode.phi_app_s_mode(p, profile)
    phi0, dphi0 = slowmode.boundary_values(p, profile)

    if p.is_eighth:
        phi_f, psi_f = fastmode.fast_mode_pair(p)
        phi_last = None
        gamma0_val = dispersion.gamma0(p.c, p, profile)
        groups = ("E1f", "E2f", "E3f", "Ff")
    else:
        hier = fastmode.ExpFastHierarchy(p, grid=grid, profile=profile)
        phi_f = hier.mode("Phi")
        psi_f = hier.mode("Psi")
        phi_last = hier.level_mode(hier.n_terms)
        gamma0_val = dphi0 - phi0 * (-p.varpi + hier.boundary_slope_sum())
        groups = ("E1f_beta", "E2f_beta", "E3f_beta", "Ff_beta")

    psi_s = magnetic.build_psi_app_s(p, slow_mode, psi_f.eval(0, 0.0), phi0,
                                     grid=grid, profile=profile)

    arrays = {f"e{k}s": slowmode.slow_errors(k, grid, p, psi_s, profile,
                                             phi_mode=slow_mode)
              for k in (1, 2, 3)}
    for key, g in zip(("e1f", "e2f", "e3f", "ff"), groups):
        arrays[key] = fastmode.fast_errors(g, grid, p, phi0, phi_f, psi_f,
                                           phi_last=phi_last, profile=profile)
    modes = {"slow": slow_mode, "phi_f": phi_f, "psi_f": psi_f, "psi_s": psi_s,
             "phi0": phi0, "dphi0": dphi0}
    return arrays, gamma0_val, modes


def error_norms(arrays, bvp, profile=DEFAULT_PROFILE):
    """L2 / weighted-L2 norms of the assembled error arrays.

    The e3 groups are weighted by |U_s''|^{-1/2}.  Past Y ~ 745 the shear
    curvature U_s'' = -e^{-Y} underflows to zero, and the e3 arrays vanish
    there as well; such a node contributes zero to the integral of
    |v|^2 / |U_s''| instead of 0 * inf = NaN.  A nonzero value at a node
    where U_s'' underflows still makes the norm infinite.
    """
    wts = bvp.weights
    w_inv_sqrt = _inv_sqrt_curvature(profile.eval("U", 2, bvp.grid))
    return {
        "e1s_l2": l2_norm(arrays["e1s"], wts),
        "e2s_l2": l2_norm(arrays["e2s"], wts),
        "e3s_l2w": l2_norm(arrays["e3s"], wts, w_inv_sqrt),
        "e1f_l2": l2_norm(arrays["e1f"], wts),
        "e2f_l2": l2_norm(arrays["e2f"], wts),
        "e3f_l2w": l2_norm(arrays["e3f"], wts, w_inv_sqrt),
        "ff_l2": l2_norm(arrays["ff"], wts),
    }


def _solve_remainders(c, params, bvp, profile):
    """Error terms at c and the two remainder solves.

    The first remainder absorbs the strongly decaying error pair, the second
    the divergence-form errors (entered through the divergence splitting).
    Returns ``(gamma0, modes, remainders)``: the approximate dispersion
    value, the participating modes of ``assemble_error_terms``, and for each
    remainder its grid arrays (phi, psi) plus its alternation trace.
    """
    p = params.with_c(c)
    arrays, gamma0_val, modes = assemble_error_terms(c, params, bvp, profile)
    it = OSIteration(p, bvp, profile)
    phi1, _, psi1, trace1 = it.iterate(arrays["e3s"] + arrays["e3f"],
                                       arrays["ff"], tol=_ALTERNATION_TOL,
                                       entry="d")
    div_source = (bvp.d1 @ (arrays["e1s"] + arrays["e1f"])
                  + 1j * p.alpha * (arrays["e2s"] + arrays["e2f"]))
    phi2, _, psi2, trace2 = it.iterate(div_source, None, tol=_ALTERNATION_TOL,
                                       entry="s")
    return gamma0_val, modes, ((phi1, psi1, trace1), (phi2, psi2, trace2))


def remainder_and_gamma(c, params, bvp, profile=DEFAULT_PROFILE):
    """Exact dispersion value Gamma(c) = Gamma0(c) - boundary slopes of the
    two remainder solves, plus diagnostics."""
    gamma0_val, _, remainders = _solve_remainders(c, params, bvp, profile)
    slope1, slope2 = (boundary_slope(bvp.grid, phi) for phi, _, _ in remainders)
    gamma = gamma0_val - slope1 - slope2
    diag = {
        "gamma0": gamma0_val,
        "gamma": gamma,
        "remainder_slopes": (slope1, slope2),
        "gap": abs(gamma - gamma0_val),
        "traces": tuple(trace for _, _, trace in remainders),
    }
    return gamma, diag


def build_mode(c, params, bvp, full_os=False, profile=DEFAULT_PROFILE):
    """Combined mode (Phi, Psi) at wave speed c as grid-backed ModeFunctions.

    Without ``full_os`` this is the approximate growing mode (zero stream
    functions at the wall by construction); with it the two remainder solves
    are subtracted, so the no-slip defect at the wall is Gamma(c) itself.
    """
    p = params.with_c(c)
    grid = bvp.grid
    if full_os:
        _, modes, remainders = _solve_remainders(c, params, bvp, profile)
    else:
        _, _, modes = assemble_error_terms(c, params, bvp, profile)
    phi0 = modes["phi0"]
    phi_arrays = [modes["slow"].eval(k, grid) - phi0 * modes["phi_f"].eval(k, grid)
                  for k in range(2)]
    psi_arrays = [modes["psi_s"].eval(k, grid) - phi0 * modes["psi_f"].eval(k, grid)
                  for k in range(2)]
    if full_os:
        (r1_phi, r1_psi, _), (r2_phi, r2_psi, _) = remainders
        phi_arrays[0] = phi_arrays[0] - r1_phi - r2_phi
        phi_arrays[1] = phi_arrays[1] - bvp.d1 @ (r1_phi + r2_phi)
        psi_arrays[0] = psi_arrays[0] - r1_psi - r2_psi
        psi_arrays[1] = psi_arrays[1] - bvp.d1 @ (r1_psi + r2_psi)
    return (mode_from_grid(grid, phi_arrays, decay_rate=p.alpha),
            mode_from_grid(grid, psi_arrays, decay_rate=p.alpha))
