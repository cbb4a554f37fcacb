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
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import dispersion, fastmode, magnetic, slowmode
from .errors import NonContraction, NonConvergence, SingularSystem
from .numerics import boundary_slope, diff_matrix, graded_grid, l2_norm, trap_weights
from .params import ModeFunction, mode_from_grid
from .profile import DEFAULT_PROFILE

__all__ = [
    "DiscreteBVP",
    "IterationTrace",
    "build_bvp",
    "os_d_solve",
    "os_s_solve",
    "os_iterate",
    "OSIteration",
    "remainder_and_gamma",
]

_COND_LIMIT = 1e12
_NOISE_FLOOR = 1e-13


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
    f_norms: list = field(default_factory=list)
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


class _Blocks:
    """Profile and coupling arrays shared by the assembled variants."""

    def __init__(self, params, bvp, profile):
        Y = bvp.grid
        self.us = profile.eval("U", 0, Y)
        self.dus = profile.eval("U", 1, Y)
        self.d2us = profile.eval("U", 2, Y)
        self.hs = profile.eval("H", 0, Y)
        self.dhs = profile.eval("H", 1, Y)
        self.d2hs = profile.eval("H", 2, Y)
        self.params = params
        self.bvp = bvp

    def magnetic_coupling(self):
        """(A_xi, A_theta): first-slot action of the expanded divergence terms
        d_Y R1 + i alpha R2 on (Phi, Psi)."""
        p = self.params
        bvp = self.bvp
        a, n, se, c = p.alpha, p.n, p.sqrt_eps, p.c
        eye = sparse.identity(bvp.n, format="csr", dtype=complex)
        dia = sparse.diags
        a_xi = ((a / n) * dia(self.dhs) @ eye
                + (a / n) * dia(self.hs) @ bvp.d1
                - (1j * a**2 / n) * eye)
        a_theta = (-se * dia(self.hs) @ bvp.d2
                   + se * dia(self.d2hs) @ eye
                   - (a / n) * dia(self.dus) @ eye
                   - (a / n) * dia(self.us - c) @ bvp.d1
                   + a**2 * se * dia(self.hs) @ eye)
        return a_xi.tocsr(), a_theta.tocsr()

    def shear_transport(self):
        """U_s' d_Y + U_s'' : the divergence-splitting leftover on Phi."""
        return (sparse.diags(self.dus) @ self.bvp.d1
                + sparse.diags(self.d2us)).tocsr()


def _assemble(params, bvp, profile, variant):
    """3N x 3N system for the requested splitting ('os_d', 'os_s', 'full')."""
    p = params
    blocks = _Blocks(p, bvp, profile)
    N = bvp.n
    a, n, se, c, chat = p.alpha, p.n, p.sqrt_eps, p.c, p.c_hat
    eye = sparse.identity(N, format="csr", dtype=complex)
    dia = sparse.diags
    d1, d2 = bvp.d1, bvp.d2

    interior = np.ones(N)
    interior[0] = interior[-1] = 0.0
    keep = dia(interior)

    def with_bc(op_phi, op_omega, op_psi, bc_rows):
        """Zero the two boundary rows of each operator, then add BC entries."""
        row = [keep @ op_phi, keep @ op_omega, keep @ op_psi]
        for col, i, vec in bc_rows:
            bc = sparse.csr_matrix((vec, (np.full(len(vec), i), np.arange(len(vec)))),
                                   shape=(N, N))
            row[col] = row[col] + bc
        return row

    # Block A: omega definition with Phi boundary rows
    rowA = with_bc(d2 - a**2 * eye, -eye, sparse.csr_matrix((N, N), dtype=complex),
                   [(0, 0, [1.0]), (0, N - 1, _unit_at(N, N - 1))])

    # Block B: governing equation in omega
    gov_phi = -dia(blocks.d2us) @ eye
    gov_omega = (1j / n) * (d2 - a**2 * eye) + dia(blocks.us - chat)
    gov_psi = sparse.csr_matrix((N, N), dtype=complex)
    if variant in ("os_s", "full"):
        a_xi, a_theta = blocks.magnetic_coupling()
        gov_phi = gov_phi + a_xi
        gov_psi = gov_psi + a_theta
    if variant == "os_s":
        gov_phi = gov_phi + blocks.shear_transport()
    if bvp.boundary == "navier":
        bc0 = (1, 0, [1.0])                  # omega(0) = 0
    else:
        slope_row = np.asarray(d1[0].todense()).ravel()[:3]
        bc0 = (0, 0, list(slope_row))        # dY Phi(0) = 0 (one-sided)
    rowB = with_bc(gov_phi, gov_omega, gov_psi,
                   [bc0, (1, N - 1, _unit_at(N, N - 1))])

    # Block C: magnetic equation with Psi boundary rows
    mag_phi = -1j * a * dia(blocks.hs) @ eye - d1
    mag_psi = -(d2 - a**2 * eye) + 1j * a * dia(blocks.us - c)
    rowC = with_bc(mag_phi, sparse.csr_matrix((N, N), dtype=complex), mag_psi,
                   [(2, 0, [1.0]), (2, N - 1, _unit_at(N, N - 1))])

    return sparse.bmat([rowA, rowB, rowC], format="csc")


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
    def __init__(self, params, bvp, profile, variant, check_condition=True):
        self.matrix = _assemble(params, bvp, profile, variant)
        try:
            self.lu = splu(self.matrix)
        except RuntimeError as exc:
            raise SingularSystem(f"{variant} factorization failed: {exc}") from exc
        if check_condition:
            cond = _estimate_condition(self.matrix, self.lu)
            if cond > _COND_LIMIT:
                raise SingularSystem(
                    f"{variant} condition estimate {cond:.2e} exceeds {_COND_LIMIT:.0e}")

    def solve(self, bvp, q1, q2):
        x = self.lu.solve(_rhs(bvp, q1, q2))
        N = bvp.n
        return x[:N], x[N:2 * N], x[2 * N:]


def _wrap_pair(bvp, params, profile, phi, omega, psi, q2):
    """(Phi, Psi) as ModeFunctions with equation-consistent second derivatives."""
    a, c = params.alpha, params.c
    blocks = _Blocks(params, bvp, profile)
    dphi = bvp.d1 @ phi
    d2phi = omega + a**2 * phi
    dpsi = bvp.d1 @ psi
    d2psi = (a**2 * psi + 1j * a * (blocks.us - c) * psi
             - 1j * a * blocks.hs * phi - dphi - np.asarray(q2, dtype=complex))
    f = mode_from_grid(bvp.grid, [phi, dphi, d2phi], decay_rate=params.alpha)
    g = mode_from_grid(bvp.grid, [psi, dpsi, d2psi], decay_rate=params.alpha)
    return f, g


def os_d_solve(q1, q2, params, bvp, profile=DEFAULT_PROFILE):
    """Diffusion-splitting solve; returns (Phi, Psi) as ModeFunctions."""
    q1v, q2v = _sample_sources(q1, q2, bvp)
    fact = _Factorized(params, bvp, profile, "os_d")
    phi, omega, psi = fact.solve(bvp, q1v, q2v)
    return _wrap_pair(bvp, params, profile, phi, omega, psi, q2v)


def os_s_solve(h1, h2, params, bvp, profile=DEFAULT_PROFILE):
    """Divergence-splitting solve; the first source may be d_Y g1 or
    i alpha g1, the discrete solve is the same."""
    h1v, h2v = _sample_sources(h1, h2, bvp)
    fact = _Factorized(params, bvp, profile, "os_s")
    xi, omega, theta = fact.solve(bvp, h1v, h2v)
    return _wrap_pair(bvp, params, profile, xi, omega, theta, h2v)


def _sample_sources(q1, q2, bvp):
    def vals(q):
        if q is None:
            return np.zeros(bvp.n, dtype=complex)
        if isinstance(q, ModeFunction):
            return q.eval(0, bvp.grid)
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
    alternation steps and both remainder problems.
    """

    def __init__(self, params, bvp, profile=DEFAULT_PROFILE):
        params._need_c()
        self.params = params
        self.bvp = bvp
        self.profile = profile
        self.blocks = _Blocks(params, bvp, profile)
        self.fact_d = _Factorized(params, bvp, profile, "os_d")
        self.fact_s = _Factorized(params, bvp, profile, "os_s")
        self.a_xi, self.a_theta = self.blocks.magnetic_coupling()
        self.transport = self.blocks.shear_transport()
        self.w_inv_sqrt = _inv_sqrt_curvature(self.d2us_weight())

    def d2us_weight(self):
        return self.blocks.d2us

    def _e_norm(self, phi, omega, psi, q2=None):
        """Weighted vorticity + velocity + magnetic norm of one step."""
        p = self.params
        bvp = self.bvp
        a = p.alpha
        wts = bvp.weights
        dphi = bvp.d1 @ phi
        dpsi = bvp.d1 @ psi
        d2psi_m_a2 = (1j * a * (self.blocks.us - p.c) * psi
                      - 1j * a * self.blocks.hs * phi - dphi
                      - (np.zeros_like(phi) if q2 is None else q2))
        return (l2_norm(omega, wts, self.w_inv_sqrt, noise_floor=_NOISE_FLOOR)
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
            trace.f_norms.append(self._e_norm(xi0, wxi0, th0, q2=f2v))
            for t, v in zip(total, (xi0, wxi0, th0)):
                t += v
            f1v = self.transport @ xi0
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
            h1 = -(self.a_xi @ phi + self.a_theta @ psi)
            xi, wxi, theta = self.fact_s.solve(self.bvp, h1, zeros)
            trace.f_norms.append(self._e_norm(xi, wxi, theta))
            q1 = self.transport @ xi
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


def os_iterate(f1, f2, params, bvp, tol=1e-8, entry="d", profile=DEFAULT_PROFILE):
    """Full resolvent solve by alternation.

    ``entry='d'`` starts on the diffusion splitting (strongly decaying first
    source); ``entry='s'`` applies the divergence-splitting pre-step first,
    for sources of the form d_Y g1 or i alpha g1.
    Returns (Phi, Psi, IterationTrace) with grid-backed ModeFunctions.
    """
    it = OSIteration(params, bvp, profile)
    phi, omega, psi, trace = it.iterate(f1, f2, tol=tol, entry=entry)
    fmode, gmode = _wrap_pair(bvp, params, profile, phi, omega, psi,
                              _sample_sources(None, f2, bvp)[1])
    return fmode, gmode, trace


def assemble_error_terms(c, params, bvp, profile=DEFAULT_PROFILE,
                         picard_tol=1e-10, n_terms=None):
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
        hier = fastmode.ExpFastHierarchy(p, grid=grid, n_terms=n_terms,
                                         profile=profile)
        phi_f = hier.mode("Phi")
        psi_f = hier.mode("Psi")
        phi_last = hier.level_mode(hier.n_terms)
        gamma0_val = dphi0 - phi0 * (-p.varpi + hier.boundary_slope_sum())
        groups = ("E1f_beta", "E2f_beta", "E3f_beta", "Ff_beta")

    psi_s = magnetic.build_psi_app_s(p, slow_mode, psi_f.eval(0, 0.0), phi0,
                                     grid=grid, profile=profile, tol=picard_tol)

    arrays = {
        "e1s": slowmode.slow_errors(1, grid, p, psi_s, profile),
        "e2s": slowmode.slow_errors(2, grid, p, psi_s, profile),
        "e3s": slowmode.slow_errors(3, grid, p, psi_s, profile),
    }
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


def remainder_and_gamma(c, params, bvp, profile=DEFAULT_PROFILE, tol=1e-8,
                        picard_tol=1e-10, n_terms=None):
    """Exact dispersion value Gamma(c) = Gamma0(c) - boundary slopes of the
    two remainder solves, plus diagnostics.

    The first remainder absorbs the strongly decaying error pair, the second
    the divergence-form errors (entered through the divergence splitting).
    """
    p = params.with_c(c)
    grid = bvp.grid
    arrays, gamma0_val, _ = assemble_error_terms(c, params, bvp, profile,
                                                 picard_tol, n_terms)

    it = OSIteration(p, bvp, profile)
    phi_r1, _, _, trace1 = it.iterate(arrays["e3s"] + arrays["e3f"],
                                      arrays["ff"], tol=tol, entry="d")
    div_source = (bvp.d1 @ (arrays["e1s"] + arrays["e1f"])
                  + 1j * p.alpha * (arrays["e2s"] + arrays["e2f"]))
    phi_r2, _, _, trace2 = it.iterate(div_source, None, tol=tol, entry="s")

    slope1 = boundary_slope(grid, phi_r1)
    slope2 = boundary_slope(grid, phi_r2)
    gamma = gamma0_val - slope1 - slope2
    diag = {
        "gamma0": gamma0_val,
        "gamma": gamma,
        "remainder_slopes": (slope1, slope2),
        "gap": abs(gamma - gamma0_val),
        "traces": (trace1, trace2),
        "error_norms": error_norms(arrays, bvp, profile),
    }
    return gamma, diag


def build_mode(c, params, bvp, full_os=False, profile=DEFAULT_PROFILE, tol=1e-8,
               picard_tol=1e-10, n_terms=None):
    """Combined mode (Phi, Psi) at wave speed c as grid-backed ModeFunctions.

    Without ``full_os`` this is the approximate growing mode (zero stream
    functions at the wall by construction); with it the two remainder solves
    are subtracted, so the no-slip defect at the wall is Gamma(c) itself.
    """
    p = params.with_c(c)
    grid = bvp.grid
    arrays, _, modes = assemble_error_terms(c, params, bvp, profile,
                                            picard_tol, n_terms)
    phi0 = modes["phi0"]
    phi_arrays = [modes["slow"].eval(k, grid) - phi0 * modes["phi_f"].eval(k, grid)
                  for k in range(2)]
    psi_arrays = [modes["psi_s"].eval(k, grid) - phi0 * modes["psi_f"].eval(k, grid)
                  for k in range(2)]
    if full_os:
        it = OSIteration(p, bvp, profile)
        r1_phi, _, r1_psi, _ = it.iterate(arrays["e3s"] + arrays["e3f"],
                                          arrays["ff"], tol=tol, entry="d")
        div_source = (bvp.d1 @ (arrays["e1s"] + arrays["e1f"])
                      + 1j * p.alpha * (arrays["e2s"] + arrays["e2f"]))
        r2_phi, _, r2_psi, _ = it.iterate(div_source, None, tol=tol, entry="s")
        phi_arrays[0] = phi_arrays[0] - r1_phi - r2_phi
        phi_arrays[1] = phi_arrays[1] - bvp.d1 @ (r1_phi + r2_phi)
        psi_arrays[0] = psi_arrays[0] - r1_psi - r2_psi
        psi_arrays[1] = psi_arrays[1] - bvp.d1 @ (r1_psi + r2_psi)
    return (mode_from_grid(grid, phi_arrays, decay_rate=p.alpha),
            mode_from_grid(grid, psi_arrays, decay_rate=p.alpha))
