import gc
import math
import random
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse

from tswave import dispersion, osresolvent, slowmode
from tswave.numerics import l2_norm
from tswave.params import SpectralParams
from tswave.profile import DEFAULT_PROFILE


def basin_params(eps=1e-12, A=2.0):
    p0 = SpectralParams.eighth(A, eps)
    return p0.with_c(p0.chat_to_c(dispersion.center_eighth(p0)))


def manufactured_fields(grid):
    """phi* = Y^3 e^{-Y}, rho* = Y e^{-Y} with hand derivatives (wall rows
    compatible with the Navier-slip conditions)."""
    Y = grid
    e = np.exp(-Y)
    phi = [Y**3 * e, (3 * Y**2 - Y**3) * e, (6 * Y - 6 * Y**2 + Y**3) * e,
           (6 - 18 * Y + 9 * Y**2 - Y**3) * e,
           (-24 + 36 * Y - 12 * Y**2 + Y**3) * e]
    rho = [Y * e, (1 - Y) * e, (Y - 2) * e]
    return phi, rho


def os_d_sources(params, grid):
    phi, rho = manufactured_fields(grid)
    a, n, c, chat = params.alpha, params.n, params.c, params.c_hat
    us = DEFAULT_PROFILE.eval("U", 0, grid)
    d2us = DEFAULT_PROFILE.eval("U", 2, grid)
    hs = DEFAULT_PROFILE.eval("H", 0, grid)
    q1 = ((1j / n) * (phi[4] - 2 * a**2 * phi[2] + a**4 * phi[0])
          + (us - chat) * (phi[2] - a**2 * phi[0]) - d2us * phi[0])
    q2 = (-(rho[2] - a**2 * rho[0]) + 1j * a * (us - c) * rho[0]
          - 1j * a * hs * phi[0] - phi[1])
    return q1, q2, phi[0], rho[0]


def os_s_sources(params, grid):
    phi, rho = manufactured_fields(grid)
    a, n, c, chat = params.alpha, params.n, params.c, params.c_hat
    se = params.sqrt_eps
    us = DEFAULT_PROFILE.eval("U", 0, grid)
    dus = DEFAULT_PROFILE.eval("U", 1, grid)
    hs = DEFAULT_PROFILE.eval("H", 0, grid)
    dhs = DEFAULT_PROFILE.eval("H", 1, grid)
    d2hs = DEFAULT_PROFILE.eval("H", 2, grid)
    # dY R1 + i alpha R2 in the expanded form used by the assembly
    coupling = ((a / n) * dhs * phi[0] + (a / n) * hs * phi[1]
                - (1j * a**2 / n) * phi[0]
                - se * hs * rho[2] + se * d2hs * rho[0]
                - (a / n) * dus * rho[0] - (a / n) * (us - c) * rho[1]
                + a**2 * se * hs * rho[0])
    h1 = ((1j / n) * (phi[4] - 2 * a**2 * phi[2] + a**4 * phi[0])
          + (us - chat) * phi[2] + dus * phi[1] - a**2 * (us - chat) * phi[0]
          + coupling)
    h2 = (-(rho[2] - a**2 * rho[0]) + 1j * a * (us - c) * rho[0]
          - 1j * a * hs * phi[0] - phi[1])
    return h1, h2, phi[0], rho[0]


def os_d_solve(q1, q2, params, bvp):
    """(phi, psi) grid arrays of the diffusion-splitting solve of the alternation."""
    phi, _, psi = osresolvent.OSIteration(params, bvp).fact_d.solve(bvp, q1, q2)
    return phi, psi


def os_s_solve(q1, q2, params, bvp):
    """(phi, psi) grid arrays of the divergence-splitting solve of the alternation."""
    phi, _, psi = osresolvent.OSIteration(params, bvp).fact_s.solve(bvp, q1, q2)
    return phi, psi


class TestDirectSolves:
    def test_zero_sources_give_zero(self):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=300)
        zeros = np.zeros(bvp.n, dtype=complex)
        phi, rho = os_d_solve(zeros, zeros, p, bvp)
        assert np.max(np.abs(phi)) == 0.0
        assert np.max(np.abs(rho)) == 0.0

    @pytest.mark.parametrize("solver,sources", [
        (os_d_solve, os_d_sources),
        (os_s_solve, os_s_sources),
    ])
    def test_manufactured_convergence(self, solver, sources):
        p = basin_params()
        errs = []
        for n_nodes in (400, 800):
            bvp = osresolvent.build_bvp(p, n_nodes=n_nodes)
            q1, q2, phi_exact, rho_exact = sources(p, bvp.grid)
            phi, rho = solver(q1, q2, p, bvp)
            errs.append(max(np.max(np.abs(phi - phi_exact)),
                            np.max(np.abs(rho - rho_exact))))
        assert errs[0] / errs[1] >= 3.5

    def test_splitting_consistency_is_exact(self):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=250)
        m_d = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "os_d")
        m_s = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "os_s")
        m_f = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "full")
        state = osresolvent._grid_state_for(p, bvp, DEFAULT_PROFILE)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3 * bvp.n) + 1j * rng.standard_normal(3 * bvp.n)
        N = bvp.n
        interior = np.ones(N)
        interior[0] = interior[-1] = 0.0
        l_d = interior * (state.a_xi @ x[:N] + state.a_theta.at(p.c) @ x[2 * N:])
        l_s = interior * (state.transport @ x[:N])
        lhs = m_d @ x
        lhs[N:2 * N] += l_d
        rhs = m_s @ x
        rhs[N:2 * N] -= l_s
        scale = np.max(np.abs(m_f @ x))
        assert np.max(np.abs(lhs - m_f @ x)) <= 1e-12 * scale
        assert np.max(np.abs(rhs - m_f @ x)) <= 1e-12 * scale

    def test_full_matrix_matches_continuous_operator(self):
        # apply the assembled full operator to a smooth decaying pair and
        # compare against hand-assembled values of both equations: the full
        # first equation is the divergence-form source minus the shear
        # transport terms
        p = basin_params(eps=1e-10)
        bvp = osresolvent.build_bvp(p, n_nodes=1100)
        g = bvp.grid
        h1, h2, phi_exact, rho_exact = os_s_sources(p, g)
        phi, rho = manufactured_fields(g)[0], manufactured_fields(g)[1]
        dus = DEFAULT_PROFILE.eval("U", 1, g)
        d2us = DEFAULT_PROFILE.eval("U", 2, g)
        full1 = h1 - dus * phi[1] - d2us * phi[0]
        m_f = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "full")
        omega = phi[2] - p.alpha**2 * phi[0]
        x = np.concatenate([phi[0], omega, rho[0]])
        out = m_f @ x
        N = bvp.n
        i = slice(3, N - 3)
        scale = np.max(np.abs(full1))
        assert np.max(np.abs(out[N:2 * N][i] - full1[i])) <= 1e-3 * scale
        assert np.max(np.abs(out[2 * N:][i] - h2[i])) <= 1e-3 * np.max(np.abs(h2))

    def test_singular_detector_on_near_singular_matrix(self):
        from scipy import sparse
        n = 200
        diag = np.ones(n, dtype=complex)
        diag[n // 2] = 1e-14
        m = sparse.diags(diag).tocsc()
        from scipy.sparse.linalg import splu
        lu = splu(m)
        cond = osresolvent._estimate_condition(m, lu)
        assert cond > 1e12

    def test_navier_slip_spectrum_avoids_upper_half_plane(self):
        # the diffusion splitting with Navier-slip wall rows has no discrete
        # eigenvalue with Im c_hat > 0, which is exactly why the admissible
        # wave speeds form a resolvent set; a SingularSystem trigger at an
        # admissible c is therefore impossible by construction (the detector
        # mechanism itself is unit-tested on a near-singular matrix above)
        p0 = SpectralParams.eighth(2.0, 1e-10)
        bvp = osresolvent.build_bvp(p0, n_nodes=80, y_max=30.0)
        a0 = osresolvent._assemble(p0.with_c(1e-4j), bvp, DEFAULT_PROFILE,
                                   "os_d").toarray()
        a1 = osresolvent._assemble(p0.with_c(1.0 + 1e-4j), bvp, DEFAULT_PROFILE,
                                   "os_d").toarray() - a0
        vals = sla.eig(a0, -a1, right=False)
        vals = 1e-4j + vals[np.isfinite(vals)]
        im_chat = vals.imag + 1.0 / p0.n
        assert np.all(im_chat <= 1e-10)


class TestIteration:
    def test_zero_source_trivial(self):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=300)
        phi, _, psi, trace = osresolvent.OSIteration(p, bvp).iterate(None, None)
        assert np.max(np.abs(phi)) == 0.0
        assert trace.converged
        assert trace.e_norms[0] == 0.0

    def test_operator_residual_oracle(self):
        # the alternation limit must satisfy the full discrete system
        p = basin_params(eps=1e-10)
        bvp = osresolvent.build_bvp(p, n_nodes=900)
        g = bvp.grid
        f1 = np.exp(-g) * (1.0 + 0.3j)
        f2 = np.exp(-1.5 * g)
        it = osresolvent.OSIteration(p, bvp)
        phi, omega, psi, trace = it.iterate(f1, f2, tol=1e-10, entry="d")
        assert trace.converged
        m_f = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "full")
        rhs = osresolvent._rhs(bvp, f1, f2)
        resid = m_f @ np.concatenate([phi, omega, psi]) - rhs
        scale = 1.0 + max(np.max(np.abs(f1)), np.max(np.abs(f2)))
        assert np.max(np.abs(resid)) <= 1e-8 * scale

    def test_divergence_entry_matches_direct_solve(self):
        # independent oracle: one factorization of the full operator
        from scipy.sparse.linalg import splu
        p = basin_params(eps=1e-10)
        bvp = osresolvent.build_bvp(p, n_nodes=900)
        g = bvp.grid
        f1 = bvp.d1 @ (np.exp(-g) * (0.5 - 0.2j))
        it = osresolvent.OSIteration(p, bvp)
        phi, omega, psi, trace = it.iterate(f1, None, tol=1e-10, entry="s")
        m_f = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "full").tocsc()
        x = splu(m_f).solve(osresolvent._rhs(bvp, f1, np.zeros_like(f1)))
        direct_phi = x[:bvp.n]
        assert np.max(np.abs(phi - direct_phi)) <= 1e-7 * np.max(np.abs(direct_phi))

    def test_contraction_ratios_below_envelope(self):
        for eps in (1e-8, 1e-10, 1e-12):
            p = basin_params(eps=eps)
            bvp = osresolvent.build_bvp(p, n_nodes=900)
            _, diag = osresolvent.remainder_and_gamma(p.c, p, bvp)
            trace = diag["traces"][0]
            envelope = 1.0 / (p.alpha**0.5 * p.n * p.c_hat.imag**2)
            assert all(r <= 1.0 for r in trace.ratios)
            assert all(r <= envelope for r in trace.ratios)


class TestRemainderAndGamma:
    def test_gap_and_grid_refinement(self):
        p = basin_params()
        gammas = {}
        for n_nodes in (700, 1400, 2800):
            bvp = osresolvent.build_bvp(p, n_nodes=n_nodes)
            gamma, diag = osresolvent.remainder_and_gamma(p.c, p, bvp)
            gammas[n_nodes] = gamma
        step1 = abs(gammas[1400] - gammas[700])
        step2 = abs(gammas[2800] - gammas[1400])
        # halving h changes Gamma by at most 4x the extrapolated second-order
        # estimate of the next halving
        assert step2 <= step1
        assert step1 <= 4.0 * 4.0 * step2 + 1e-12

    def test_exact_dispersion_gap_and_root_in_basin(self):
        # The strict gap inequality |Gamma - Gamma0| < |Gamma0|/2 is
        # demonstrated on the upper arc of the certification circle, where
        # Im c_hat stays comparable to the disk center and the alternation
        # operates inside its resolvent sets.  (Near the bottom of the disk,
        # which at A = 2 is tangent to the branch line Im c_hat = 0, the
        # resolvent bounds degenerate like Im c_hat^{-2} and the gap blows
        # up at any reachable eps; see the approximate-mode certification
        # tests for the winding of Gamma0 itself.)
        p0 = SpectralParams.eighth(2.0, 1e-16)
        bvp = osresolvent.build_bvp(p0, n_nodes=1300)
        disk = dispersion.disk_eighth(p0)
        from tswave.numerics import newton_root

        gaps, gammas0 = [], []
        for th in np.linspace(0.15 * math.pi, 0.85 * math.pi, 12):
            chat = disk.point(th)
            _, diag = osresolvent.remainder_and_gamma(p0.chat_to_c(chat), p0, bvp)
            gaps.append(diag["gap"])
            gammas0.append(abs(diag["gamma0"]))
        assert max(gaps) < 0.5 * min(gammas0)

        root, trace = newton_root(
            lambda w: osresolvent.remainder_and_gamma(
                p0.chat_to_c(w), p0, bvp)[0], disk.center, tol=1e-9, max_iter=25)
        assert trace.converged
        assert disk.contains(root, slack=0.2)
        c_exact = p0.chat_to_c(root)
        ratio = p0.alpha * c_exact.imag / 1e-16 ** 0.25
        assert 0.2 <= ratio <= 5.0

    def test_growth_rate_scaling_demo(self):
        # rate = alpha Im c / sqrt(eps) against the quarter-power law, using
        # the certified approximate eigenvalues deep in the basin
        rates = {}
        for eps in (1e-16, 1e-20, 1e-24):
            p0 = SpectralParams.eighth(2.0, eps)
            rep = dispersion.certify_eighth(p0)
            c = p0.chat_to_c(rep.c_root)
            rates[eps] = p0.alpha * c.imag / math.sqrt(eps)
        es = sorted(rates, reverse=True)
        slope = np.polyfit(np.log(es), np.log([rates[e] for e in es]), 1)[0]
        assert slope == pytest.approx(-0.25, abs=0.03)

    def test_noslip_wall_second_derivative_vanishes_at_root(self):
        # at the exact root the magnetic equation restricted to the wall
        # forces the second derivative of the magnetic stream function to zero
        p0 = SpectralParams.eighth(2.0, 1e-12)
        bvp = osresolvent.build_bvp(p0, n_nodes=1300)
        from tswave.numerics import newton_root
        root, trace = newton_root(
            lambda w: osresolvent.remainder_and_gamma(
                p0.chat_to_c(w), p0, bvp)[0], dispersion.disk_eighth(p0).center,
            tol=1e-9, max_iter=25)
        assert trace.converged
        phi, psi = osresolvent.build_mode(p0.chat_to_c(root), p0, bvp,
                                          full_os=True)
        g = bvp.grid
        psi_vals = psi.eval(0, g[:5])
        a, b = g[1] - g[0], g[2] - g[1]
        d2 = 2.0 * (a * psi_vals[2] - (a + b) * psi_vals[1] + b * psi_vals[0]) / (
            a * b * (a + b))
        # scale: the wall curvature of the approximate magnetic fast mode
        scale = np.max(np.abs(psi.eval(1, g[:50]))) / bvp.cluster_scale
        assert abs(psi_vals[0]) <= 1e-10 * max(1.0, np.max(np.abs(psi_vals)))
        assert abs(d2) <= 2e-2 * scale

    def test_dense_noslip_eigenvalue_matches_certified_root(self):
        # independent oracle: a dense generalized eigensolve of the no-slip
        # discretization has an unstable eigenvalue at the certified location
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify_eighth(p0)
        c_app = p0.chat_to_c(rep.c_root)
        bvp = osresolvent.build_bvp(p0, n_nodes=420, boundary="noslip")
        shift = p0.with_c(1e-4j)
        a0 = osresolvent._assemble(shift, bvp, DEFAULT_PROFILE, "full").toarray()
        a1 = osresolvent._assemble(p0.with_c(1.0 + 1e-4j), bvp, DEFAULT_PROFILE,
                                   "full").toarray() - a0
        vals = sla.eig(a0, -a1, right=False)
        vals = 1e-4j + vals[np.isfinite(vals)]
        nearest = vals[np.argmin(np.abs(vals - c_app))]
        assert abs(nearest - c_app) < 0.05 * abs(c_app)
        assert nearest.imag > 0.0


class TestMeasuredResolventScalings:
    def test_os_d_weighted_bound(self):
        # || (dYY - a^2) phi ||_w * Im chat / ||q1||_w stays bounded
        consts = []
        for eps in (1e-8, 1e-10, 1e-12):
            p = basin_params(eps=eps)
            bvp = osresolvent.build_bvp(p, n_nodes=800)
            g = bvp.grid
            q1 = np.exp(-g) * (1.0 + 0.5j)
            fact = osresolvent._Factorized(p, bvp, DEFAULT_PROFILE, "os_d")
            phi, omega, psi = fact.solve(bvp, q1, np.zeros_like(q1))
            w = 1.0 / np.sqrt(np.abs(DEFAULT_PROFILE.eval("U", 2, g)))
            num = l2_norm(omega, bvp.weights, w, noise_floor=1e-13)
            den = l2_norm(q1, bvp.weights, w)
            consts.append(num * p.c_hat.imag / den)
        assert max(consts) <= 10.0


class TestErrorNorms:
    def test_curvature_weighted_norms_past_underflow(self):
        # U_s'' = -e^{-Y} underflows to zero past Y ~ 745; the e3 arrays vanish
        # there too, so the |U_s''|^{-1/2}-weighted norms must stay finite and
        # agree with the same norms on a grid that stops before the underflow
        p = basin_params()
        norms = {}
        for y_max in (None, 1000.0):
            bvp = osresolvent.build_bvp(p, n_nodes=400, y_max=y_max)
            arrays, _, _ = osresolvent.assemble_error_terms(p.c, p, bvp)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                norms[y_max] = osresolvent.error_norms(arrays, bvp)
            if y_max is None:
                assert bvp.grid[-1] < 745.0
                # below the underflow: the plain weighted formula, unchanged
                w = 1.0 / np.sqrt(np.abs(DEFAULT_PROFILE.eval("U", 2, bvp.grid)))
                for key in ("e3s", "e3f"):
                    old = l2_norm(arrays[key], bvp.weights, w)
                    assert norms[None][key + "_l2w"] == pytest.approx(old, rel=1e-12)
            else:
                assert DEFAULT_PROFILE.eval("U", 2, bvp.grid[-1]) == 0.0
        for key in ("e3s_l2w", "e3f_l2w"):
            assert math.isfinite(norms[1000.0][key])
            assert norms[1000.0][key] == pytest.approx(norms[None][key], rel=1e-3)


class _PerCBlocks:
    """Profile and coupling arrays rebuilt at every wave speed, as before the
    per-grid state: the reference for the affine assembly."""

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
        return (sparse.diags(self.dus) @ self.bvp.d1
                + sparse.diags(self.d2us)).tocsr()


def _per_c_assemble(params, bvp, profile, variant):
    """The per-c assembly of the 3N x 3N system, kept as the reference."""
    p = params
    blocks = _PerCBlocks(p, bvp, profile)
    N = bvp.n
    a, n, c, chat = p.alpha, p.n, p.c, p.c_hat
    eye = sparse.identity(N, format="csr", dtype=complex)
    zero = sparse.csr_matrix((N, N), dtype=complex)
    dia = sparse.diags
    d1, d2 = bvp.d1, bvp.d2
    interior = np.ones(N)
    interior[0] = interior[-1] = 0.0
    keep = dia(interior)
    unit_last = [0.0] * (N - 1) + [1.0]

    def with_bc(op_phi, op_omega, op_psi, bc_rows):
        row = [keep @ op_phi, keep @ op_omega, keep @ op_psi]
        for col, i, vec in bc_rows:
            bc = sparse.csr_matrix((vec, (np.full(len(vec), i), np.arange(len(vec)))),
                                   shape=(N, N))
            row[col] = row[col] + bc
        return row

    rowA = with_bc(d2 - a**2 * eye, -eye, zero, [(0, 0, [1.0]), (0, N - 1, unit_last)])
    gov_phi = -dia(blocks.d2us) @ eye
    gov_omega = (1j / n) * (d2 - a**2 * eye) + dia(blocks.us - chat)
    gov_psi = zero
    if variant in ("os_s", "full"):
        a_xi, a_theta = blocks.magnetic_coupling()
        gov_phi = gov_phi + a_xi
        gov_psi = gov_psi + a_theta
    if variant == "os_s":
        gov_phi = gov_phi + blocks.shear_transport()
    if bvp.boundary == "navier":
        bc0 = (1, 0, [1.0])
    else:
        bc0 = (0, 0, list(np.asarray(d1[0].todense()).ravel()[:3]))
    rowB = with_bc(gov_phi, gov_omega, gov_psi, [bc0, (1, N - 1, unit_last)])
    mag_phi = -1j * a * dia(blocks.hs) @ eye - d1
    mag_psi = -(d2 - a**2 * eye) + 1j * a * dia(blocks.us - c)
    rowC = with_bc(mag_phi, zero, mag_psi, [(2, 0, [1.0]), (2, N - 1, unit_last)])
    return sparse.bmat([rowA, rowB, rowC], format="csc")


def _clear_grid_caches():
    osresolvent._grid_state.cache_clear()
    osresolvent._affine_operator.cache_clear()


class TestPerGridState:
    """Gamma(c) is evaluated from per-(grid, params, profile) state: the
    operators as A0 + c A1 and the c-free profile and coupling arrays."""

    def test_gamma_independent_of_evaluation_order(self):
        # two parameter sets on the same two grids share the caches; any
        # order of the evaluations, including ones that evict entries, gives
        # the same bits
        bvps = [osresolvent.build_bvp(SpectralParams.eighth(2.0, 1e-12), n_nodes=n)
                for n in (300, 360)]
        cases = []
        for A in (2.0, 2.5):
            p0 = SpectralParams.eighth(A, 1e-12)
            disk = dispersion.disk_eighth(p0)
            for bvp in bvps:
                for th in (0.7, 1.6, 2.5):
                    cases.append((p0.chat_to_c(disk.point(th)), p0, bvp))

        def run(order):
            _clear_grid_caches()
            return {i: osresolvent.remainder_and_gamma(*cases[i])[0] for i in order}

        in_order = run(range(len(cases)))
        shuffled = list(range(len(cases)))
        random.Random(3).shuffle(shuffled)
        # interleave: each c visits all four (grid, params) pairs in turn
        interleaved = [i + 3 * j for i in range(3) for j in range(4)]
        for order in (shuffled, interleaved):
            assert run(order) == in_order

    def test_operators_match_per_c_assembly(self):
        for boundary in ("navier", "noslip"):
            p = basin_params()
            bvp = osresolvent.build_bvp(p, n_nodes=250, boundary=boundary)
            for variant in ("os_d", "os_s", "full"):
                m = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, variant)
                ref = _per_c_assemble(p, bvp, DEFAULT_PROFILE, variant)
                assert np.array_equal(m.indptr, ref.indptr)
                assert np.array_equal(m.indices, ref.indices)
                assert np.max(np.abs(m.data - ref.data) / np.abs(ref.data)) <= 1e-14
        state = osresolvent._grid_state_for(p, bvp, DEFAULT_PROFILE)
        a_xi, a_theta = _PerCBlocks(p, bvp, DEFAULT_PROFILE).magnetic_coupling()
        assert abs(state.a_xi - a_xi).max() == 0.0
        assert abs(state.a_theta.at(p.c) - a_theta).max() <= 1e-15 * abs(a_theta).max()

    def test_gamma_matches_per_c_assembly(self, monkeypatch):
        # the reference rebuilds every operator at each c.  The two differ by
        # rounding in the c-dependent entries, which the solves amplify: a
        # one-ulp change of c moves the reference Gamma by up to 7e-13 at
        # A = 2, eps = 1e-12, N = 1600, so the comparison sits on the upper
        # arc of an outer-range disk, where the solves are well conditioned
        p0 = SpectralParams.eighth(2.0, 1e-10)
        bvp = osresolvent.build_bvp(p0, n_nodes=400)
        disk = dispersion.disk_eighth(p0)
        cs = [p0.chat_to_c(disk.point(th))
              for th in np.linspace(0.15 * math.pi, 0.85 * math.pi, 4)]
        gammas = [osresolvent.remainder_and_gamma(c, p0, bvp)[0] for c in cs]

        init = osresolvent.OSIteration.__init__

        def per_c_init(self, params, bvp, profile=DEFAULT_PROFILE):
            init(self, params, bvp, profile)
            self.a_theta = _PerCBlocks(params, bvp, profile).magnetic_coupling()[1]

        monkeypatch.setattr(osresolvent, "_assemble", _per_c_assemble)
        monkeypatch.setattr(osresolvent.OSIteration, "__init__", per_c_init)
        for c, gamma in zip(cs, gammas):
            ref = osresolvent.remainder_and_gamma(c, p0, bvp)[0]
            assert abs(gamma - ref) <= 1e-12 * abs(ref)

    def test_cached_arrays_are_read_only(self):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=200)
        state = osresolvent._grid_state_for(p, bvp, DEFAULT_PROFILE)
        arrays = [state.us, state.dus, state.d2us, state.hs, state.dhs, state.d2hs,
                  state.w_inv_sqrt]
        for m in (state.d1, state.d2, state.a_xi, state.transport, *state.a_theta):
            arrays += [m.data, m.indices, m.indptr]
        key = osresolvent._state_key(p, bvp, DEFAULT_PROFILE)
        op = osresolvent._affine_operator(key[0], bvp.boundary, *key[1:], "os_s")
        for m in op:
            arrays += [m.data, m.indices, m.indptr]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # an operator at one c is the caller's own
        m = osresolvent._assemble(p, bvp, DEFAULT_PROFILE, "os_s")
        m.data[0] = m.data[0]

    def test_caches_keep_no_grid_alive(self):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=200)
        osresolvent.remainder_and_gamma(p.c, p, bvp)
        ref = weakref.ref(bvp)
        gc.disable()
        try:
            del bvp
            assert ref() is None
        finally:
            gc.enable()

    def test_slow_mode_evaluated_once_per_order(self, monkeypatch):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=300)
        calls = []
        phi_app_s = slowmode.phi_app_s

        def counted(order, Y, *args):
            calls.append((order, np.size(Y)))
            return phi_app_s(order, Y, *args)

        monkeypatch.setattr(slowmode, "phi_app_s", counted)
        osresolvent.assemble_error_terms(p.c, p, bvp)
        assert sorted(calls) == [(k, bvp.n) for k in (0, 1, 3)]
