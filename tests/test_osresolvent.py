import gc
import math
import random
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigs, splu

from oracles import (alternated_gamma, closed_form_calls, fast_mode_pair,
                     stencil_matrix)
from tswave import airy, dispersion, fastmode, magnetic, osresolvent, slowmode
from tswave.errors import NonConvergence, SingularSystem
from tswave.numerics import l2_norm
from tswave.params import ModeFunction, SpectralParams
from tswave.profile import DEFAULT_PROFILE, HartmannProfile, profile_arrays


def basin_params(eps=1e-12, A=2.0):
    p0 = SpectralParams.eighth(A, eps)
    return p0.with_c(dispersion.center_c(p0))


def profile_builds(monkeypatch):
    """Record the grid size of every ``profile_arrays`` evaluation by the
    program: a DiscreteBVP's and a slow-mode read's."""
    built = []

    def counted(grid):
        built.append(grid.size)
        return profile_arrays(grid)

    for module in (osresolvent, slowmode):
        monkeypatch.setattr(module, "profile_arrays", counted)
    return built


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


def band_matrix(band, kl, ku):
    """Block-order sparse matrix of a node-order operator in LAPACK band
    storage: the inverse of ``_to_band``."""
    n = band.shape[1]
    q, cols = np.nonzero(band)
    rows = q - kl - ku + cols

    def block(k):
        return (k % 3) * (n // 3) + k // 3

    return sparse.csc_matrix((band[q, cols], (block(rows), block(cols))), shape=(n, n))


class BlockOperator(NamedTuple):
    """A(c) = a0 + c a1 as block-order sparse matrices."""

    a0: sparse.csc_matrix
    a1: sparse.csc_matrix

    def at(self, c):
        return (self.a0 + c * self.a1).tocsc()


def block_operator(params, bvp, variant):
    """Sparse block-order system A0 + c A1 of one splitting on bvp's grid,
    read from the module's bands."""
    op = osresolvent._affine_operator(bvp, replace(params, c=None), variant)
    return BlockOperator(band_matrix(op.band0, op.kl, op.ku),
                         band_matrix(op.band1, op.kl, op.ku))


def assemble(params, bvp, variant):
    """Sparse block-order system of one splitting at the wave speed of params."""
    return band_matrix(*osresolvent._band_at(params, bvp, variant))


def noslip_operator(params, n_nodes):
    """The no-slip 'full' system A0 + c A1 on an n_nodes grid."""
    bvp = osresolvent.build_bvp(params, n_nodes=n_nodes, boundary="noslip")
    return block_operator(params, bvp, "full")


def noslip_eigenvalue_near(params, n_nodes, sigma):
    """Eigenvalue c of the no-slip system nearest sigma, by shift-invert
    ARPACK: an eigenvalue mu of A(sigma)^{-1} A1 is c = sigma - 1/mu."""
    op = noslip_operator(params, n_nodes)
    lu = splu(op.at(sigma))
    shifted = LinearOperator(op.a1.shape, matvec=lambda x: lu.solve(op.a1 @ x),
                             dtype=complex)
    mu = eigs(shifted, k=1, which="LM", v0=np.ones(op.a1.shape[0], dtype=complex),
              return_eigenvectors=False)
    return sigma - 1.0 / mu[0]


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
        m_d = assemble(p, bvp, "os_d")
        m_s = assemble(p, bvp, "os_s")
        m_f = assemble(p, bvp, "full")
        it = osresolvent.OSIteration(p, bvp)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3 * bvp.n) + 1j * rng.standard_normal(3 * bvp.n)
        N = bvp.n
        interior = np.ones(N)
        interior[0] = interior[-1] = 0.0
        l_d = interior * it.coupling(x[:N], x[2 * N:])
        l_s = interior * it.transport(x[:N])
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
        m_f = assemble(p, bvp, "full")
        omega = phi[2] - p.alpha**2 * phi[0]
        x = np.concatenate([phi[0], omega, rho[0]])
        out = m_f @ x
        N = bvp.n
        i = slice(3, N - 3)
        scale = np.max(np.abs(full1))
        assert np.max(np.abs(out[N:2 * N][i] - full1[i])) <= 1e-3 * scale
        assert np.max(np.abs(out[2 * N:][i] - h2[i])) <= 1e-3 * np.max(np.abs(h2))

    def test_singular_detector_on_near_singular_matrix(self):
        n = 201
        diag = np.ones(n, dtype=complex)
        diag[n // 2] = 1e-14
        band, kl, ku = _to_band(sparse.diags(diag).tocsc())
        cond = osresolvent._estimate_condition(osresolvent.splu(band, kl, ku))
        assert cond > 1e12

    def test_navier_slip_spectrum_avoids_upper_half_plane(self):
        # the diffusion splitting with Navier-slip wall rows has no discrete
        # eigenvalue with Im c_hat > 0, which is exactly why the admissible
        # wave speeds form a resolvent set; a SingularSystem trigger at an
        # admissible c is therefore impossible by construction (the detector
        # mechanism itself is unit-tested on a near-singular matrix above)
        p0 = SpectralParams.eighth(2.0, 1e-10)
        bvp = osresolvent.build_bvp(p0, n_nodes=80, y_max=30.0)
        a0 = assemble(p0.with_c(1e-4j), bvp, "os_d").toarray()
        a1 = assemble(p0.with_c(1.0 + 1e-4j), bvp, "os_d").toarray() - a0
        vals = sla.eig(a0, -a1, right=False)
        vals = 1e-4j + vals[np.isfinite(vals)]
        im_chat = vals.imag + 1.0 / p0.n
        assert np.all(im_chat <= 1e-10)


def node_order(v, n_nodes):
    """Block-order vector (Phi, omega, Psi) in node-interleaved order."""
    return v.reshape(3, n_nodes).T.ravel()


def block_order(v, n_nodes):
    return v.reshape(n_nodes, 3).T.ravel()


def band_solve(params, bvp, variant, rhs):
    """Block-order solution of one splitting by the module's banded LU."""
    band, kl, ku = osresolvent._band_at(params, bvp, variant)
    lu = osresolvent.splu(band, kl, ku)
    return block_order(lu.solve(node_order(rhs, bvp.n)), bvp.n)


def random_rhs(bvp, seed):
    """Random sources in the shape every solve sees: zero Phi-definition and
    boundary rows."""
    rng = np.random.default_rng(seed)
    q1, q2 = (rng.standard_normal(bvp.n) + 1j * rng.standard_normal(bvp.n)
              for _ in range(2))
    return osresolvent._rhs(bvp, q1, q2)


def superlu_condition(matrix, lu):
    """Hager-style 1-norm condition estimate on SuperLU factors of the
    block-order matrix: the oracle of the banded estimate."""
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


class TestBandedFactorization:
    """The node-order banded LU against SuperLU on the block-order matrix."""

    @pytest.mark.parametrize("boundary", ["navier", "noslip"])
    @pytest.mark.parametrize("variant", ["os_d", "os_s", "full"])
    def test_band_storage_rebuilds_the_operator(self, boundary, variant):
        # the band read back as a dense node-order matrix is the per-c sparse
        # assembly: the same pattern, values within 1e-14 relative
        p0 = SpectralParams.eighth(2.0, 1e-12)
        bvp = osresolvent.build_bvp(p0, n_nodes=60, boundary=boundary)
        n = 3 * bvp.n
        block_of_node = node_order(np.arange(n), bvp.n)
        disk = dispersion.disk_eighth(p0)
        for th in (0.4, 2.0, 4.5):
            p = p0.with_c(p0.chat_to_c(disk.point(th)))
            band, kl, ku = osresolvent._band_at(p, bvp, variant)
            assert band.shape == (2 * kl + ku + 1, n) and band.flags.f_contiguous
            assert not band[:kl].any()
            dense = np.zeros((n, n), dtype=complex)
            for j in range(n):
                for i in range(max(0, j - ku), min(n, j + kl + 1)):
                    dense[i, j] = band[kl + ku + i - j, j]
            ref = _per_c_assemble(p, bvp, variant).toarray()
            expected = ref[np.ix_(block_of_node, block_of_node)]
            live = expected != 0
            assert np.array_equal(dense != 0, live)
            assert np.max(np.abs(dense[live] - expected[live])
                          / np.abs(expected[live])) <= 1e-14

    @pytest.mark.parametrize("boundary", ["navier", "noslip"])
    def test_solves_match_superlu(self, boundary):
        p = basin_params()
        bvp = osresolvent.build_bvp(p, boundary=boundary)
        rhs = random_rhs(bvp, seed=1)
        for variant in ("os_d", "os_s", "full"):
            m = assemble(p, bvp, variant)
            x = band_solve(p, bvp, variant, rhs)
            ref = splu(m).solve(rhs)
            resid = m @ x - rhs
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
            # normwise backward error, free of the operator's scale
            anorm = np.max(np.abs(m).sum(axis=0))
            assert np.linalg.norm(resid, 1) <= 1e-15 * (
                anorm * np.linalg.norm(x, 1) + np.linalg.norm(rhs, 1))

    @pytest.mark.parametrize("boundary", ["navier", "noslip"])
    def test_ill_conditioned_residual_near_superlu(self, boundary):
        p = basin_params(eps=1e-20, A=4.0)
        bvp = osresolvent.build_bvp(p, boundary=boundary)
        rhs = random_rhs(bvp, seed=2)
        for variant in ("os_d", "os_s", "full"):
            m = assemble(p, bvp, variant)
            resid = np.linalg.norm(m @ band_solve(p, bvp, variant, rhs) - rhs)
            resid_superlu = np.linalg.norm(m @ splu(m).solve(rhs) - rhs)
            assert resid <= 4.0 * resid_superlu

    @pytest.mark.parametrize("A,eps", [(2.0, 1e-12), (4.0, 1e-20), (4.0, 1e-24)])
    def test_condition_estimate_matches_superlu_oracle(self, A, eps):
        p = basin_params(eps=eps, A=A)
        bvp = osresolvent.build_bvp(p)
        for variant in ("os_d", "os_s"):
            band, kl, ku = osresolvent._band_at(p, bvp, variant)
            cond = osresolvent._estimate_condition(osresolvent.splu(band, kl, ku))
            m = assemble(p, bvp, variant)
            ref = superlu_condition(m, splu(m))
            assert ref / 2.0 <= cond <= 2.0 * ref

    def test_guard_refuses_amplitude_four_at_eps_1e24(self):
        p = basin_params(eps=1e-24, A=4.0)
        with pytest.raises(SingularSystem, match="condition estimate"):
            osresolvent.OSIteration(p, osresolvent.build_bvp(p))

    def test_nan_condition_estimate_is_refused(self, monkeypatch):
        # one NaN entry on the diagonal of the full band leaves zgbtrf without
        # an exactly zero pivot and the Hager estimate NaN: the factorization
        # is refused as not finite, not as exceeding the limit
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=400)
        band_at = osresolvent._band_at

        def with_nan(params, bvp, variant):
            band, kl, ku = band_at(params, bvp, variant)
            band[kl + ku, 3 * (bvp.n // 2)] = math.nan
            return band, kl, ku

        monkeypatch.setattr(osresolvent, "_band_at", with_nan)
        with pytest.raises(SingularSystem) as err:
            osresolvent._Factorized(p, bvp, "full")
        assert str(err.value) == "full condition estimate nan is not finite"

    @pytest.mark.parametrize("eps", [1e-20, 1e-24])
    def test_gamma_guard_refuses_amplitude_four(self, eps):
        # the exact Gamma factors the full operator; its estimate at the disk
        # center is 4.1e13 (eps = 1e-20) and 2.1e15 (eps = 1e-24)
        p = basin_params(eps=eps, A=4.0)
        with pytest.raises(SingularSystem, match="full condition estimate"):
            osresolvent.remainder_and_gamma(p.c, p, osresolvent.build_bvp(p))


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
        m_f = assemble(p, bvp, "full")
        rhs = osresolvent._rhs(bvp, f1, f2)
        resid = m_f @ np.concatenate([phi, omega, psi]) - rhs
        scale = 1.0 + max(np.max(np.abs(f1)), np.max(np.abs(f2)))
        assert np.max(np.abs(resid)) <= 1e-8 * scale

    def test_divergence_entry_matches_direct_solve(self):
        # independent oracle: one factorization of the full operator
        p = basin_params(eps=1e-10)
        bvp = osresolvent.build_bvp(p, n_nodes=900)
        g = bvp.grid
        f1 = bvp.d1 @ (np.exp(-g) * (0.5 - 0.2j))
        it = osresolvent.OSIteration(p, bvp)
        phi, omega, psi, trace = it.iterate(f1, None, tol=1e-10, entry="s")
        m_f = assemble(p, bvp, "full")
        x = splu(m_f).solve(osresolvent._rhs(bvp, f1, np.zeros_like(f1)))
        direct_phi = x[:bvp.n]
        assert np.max(np.abs(phi - direct_phi)) <= 1e-7 * np.max(np.abs(direct_phi))

    def test_contraction_ratios_below_envelope(self):
        for eps in (1e-8, 1e-10, 1e-12):
            p = basin_params(eps=eps)
            bvp = osresolvent.build_bvp(p, n_nodes=900)
            trace = alternated_gamma(p.c, p, bvp)[1][0]
            envelope = 1.0 / (p.alpha**0.5 * p.n * p.c_hat.imag**2)
            assert all(r <= 1.0 for r in trace.ratios)
            assert all(r <= envelope for r in trace.ratios)


class TestRemainderAndGamma:
    @pytest.mark.parametrize("A,eps", [(2.0, 1e-10), (2.0, 1e-12), (2.0, 5.36e-14),
                                       (3.0, 1e-15)])
    def test_gamma_matches_alternation_oracle(self, A, eps):
        # the one-LU solve of the full operator against the paper's
        # alternation of the two splittings, on the boundary of the Gamma0 disk
        p0 = SpectralParams.eighth(A, eps)
        bvp = osresolvent.build_bvp(p0)
        disk = dispersion.disk_eighth(p0)
        for th in math.pi / 64 + np.linspace(0.0, 2 * math.pi, 5)[:-1]:
            c = p0.chat_to_c(disk.point(th))
            ref, traces = alternated_gamma(c, p0, bvp)
            assert all(t.converged for t in traces)
            gamma = osresolvent.remainder_and_gamma(c, p0, bvp)[0]
            assert abs(gamma - ref) <= 1e-9 * abs(ref)

    def test_condition_estimate_reported(self):
        # the diagnostics carry the full operator's Hager estimate at c
        p = basin_params()
        bvp = osresolvent.build_bvp(p)
        cond = osresolvent.remainder_and_gamma(p.c, p, bvp)[1]["condition"]
        band, kl, ku = osresolvent._band_at(p, bvp, "full")
        assert cond == osresolvent._estimate_condition(osresolvent.splu(band, kl, ku))
        assert math.isfinite(cond) and 1.0 <= cond <= osresolvent._COND_LIMIT

    def test_condition_estimate_rides_along_with_the_remainder_solve(self, monkeypatch):
        # the Hager estimate's first step is one more column of the remainder
        # solve: three columns in the first zgbtrs call, then one one-column
        # solve fewer than the estimate makes on its own, and its value
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=400)
        columns = []
        solve = osresolvent._BandLU.solve

        def counted(lu, b, trans=0):
            columns.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return solve(lu, b, trans)

        monkeypatch.setattr(osresolvent._BandLU, "solve", counted)
        cond = osresolvent.remainder_and_gamma(p.c, p, bvp)[1]["condition"]
        folded = list(columns)
        columns.clear()
        band, kl, ku = osresolvent._band_at(p, bvp, "full")
        assert cond == osresolvent._estimate_condition(osresolvent.splu(band, kl, ku))
        assert folded[0] == 3 and folded[1:] == columns[1:] == [1] * (len(columns) - 1)

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

        root, trace = newton_root(np.vectorize(
            lambda w: osresolvent.remainder_and_gamma(
                p0.chat_to_c(w), p0, bvp)[0], otypes=[complex]),
            disk.center, tol=1e-9, max_iter=25)
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
        root, trace = newton_root(np.vectorize(
            lambda w: osresolvent.remainder_and_gamma(
                p0.chat_to_c(w), p0, bvp)[0], otypes=[complex]),
            dispersion.disk_eighth(p0).center, tol=1e-9, max_iter=25)
        assert trace.converged
        phi, psi = osresolvent.build_mode(p0.chat_to_c(root), p0, bvp,
                                          full_os=True)
        g = bvp.grid
        psi_vals = psi[0][:5]
        a, b = g[1] - g[0], g[2] - g[1]
        d2 = 2.0 * (a * psi_vals[2] - (a + b) * psi_vals[1] + b * psi_vals[0]) / (
            a * b * (a + b))
        # scale: the wall curvature of the approximate magnetic fast mode,
        # over the eps^{1/8} sub-layer scale n^{-1/3}
        scale = np.max(np.abs(psi[1][:50])) / p0.n ** (-1.0 / 3.0)
        assert abs(psi_vals[0]) <= 1e-10 * max(1.0, np.max(np.abs(psi_vals)))
        assert abs(d2) <= 2e-2 * scale

    def test_dense_noslip_eigenvalue_matches_certified_root(self):
        # independent oracle: the no-slip discretization has an unstable
        # eigenvalue at the certified location
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify_eighth(p0)
        c_app = p0.chat_to_c(rep.c_root)
        nearest = noslip_eigenvalue_near(p0, 420, c_app)
        assert abs(nearest - c_app) < 0.05 * abs(c_app)
        assert nearest.imag > 0.0

    def test_sparse_eigen_oracle_matches_dense_eig(self):
        # the shift-invert oracle against a dense generalized eigensolve of
        # A0 x = -c A1 x on a small grid
        p0 = SpectralParams.eighth(2.0, 1e-12)
        c_app = p0.chat_to_c(dispersion.certify_eighth(p0).c_root)
        op = noslip_operator(p0, 200)
        vals = sla.eig(op.a0.toarray(), -op.a1.toarray(), right=False)
        vals = vals[np.isfinite(vals)]
        dense = vals[np.argmin(np.abs(vals - c_app))]
        assert abs(noslip_eigenvalue_near(p0, 200, c_app) - dense) <= 1e-8 * abs(dense)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _leaves(result):
    """The arrays and numbers of an assembly's result, nested in dicts and
    tuples, in a fixed order."""
    if isinstance(result, dict):
        return [v for key in sorted(result) for v in _leaves(result[key])]
    if isinstance(result, tuple):
        return [v for item in result for v in _leaves(item)]
    return [result]


def assert_block_assembly_equals_points(cs, p0, bvp):
    """Each row of one assembly of the block ``cs`` has the bits of the
    assembly of its point alone: every error array, Gamma0, the wall values
    and every order of every mode."""
    block = _leaves(osresolvent.assemble_error_terms(cs, p0, bvp))
    for j, c in enumerate(cs):
        want = _leaves(osresolvent.assemble_error_terms(c, p0, bvp))
        got = [np.asarray(v)[j] for v in block]
        assert len(got) == len(want)
        differ = [i for i, (a, b) in enumerate(zip(got, want)) if not _same_bits(a, b)]
        assert differ == [], (j, differ)


def _raised(fn):
    """(type, message) of the exception ``fn`` raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestGammaBlocks:
    """Gamma on an array of wave speeds, evaluated in blocks, against Gamma
    point by point."""

    @staticmethod
    def round_setup():
        p0 = SpectralParams.eighth(2.0, 1e-12)
        return p0, osresolvent.build_bvp(p0, n_nodes=400), dispersion.disk_eighth(p0)

    def test_block_equals_points_bit_for_bit(self, monkeypatch):
        # the winding count's first round (65 points: four blocks of 16 at
        # N = 400 and one of 1), an odd refinement round and a Newton call;
        # each block is assembled once, not again point by point
        p0, bvp, disk = self.round_setup()
        assemble = osresolvent.assemble_error_terms
        sizes = []

        def counted(c, params, bvp):
            sizes.append(np.size(c))
            return assemble(c, params, bvp)

        monkeypatch.setattr(osresolvent, "assemble_error_terms", counted)
        thetas = math.pi / 64 + np.linspace(0.0, 2 * math.pi, 65)
        c0 = p0.chat_to_c(disk.center)
        h = 1e-7 * max(abs(c0), 1.0)
        rounds = [p0.chat_to_c(disk.point(thetas)),
                  p0.chat_to_c(disk.point((thetas[3:10] + thetas[4:11]) / 2.0)),
                  np.array([c0, c0 + h, c0 - h])]
        assert osresolvent._BLOCK_NODES // bvp.n == 16
        for cs, blocks in zip(rounds, ([16, 16, 16, 16, 1], [7], [3])):
            sizes.clear()
            gamma, diag = osresolvent.remainder_and_gamma(cs, p0, bvp)
            assert sizes == blocks
            points = [osresolvent.remainder_and_gamma(c, p0, bvp) for c in cs]
            assert _same_bits(gamma, [g for g, _ in points])
            assert set(diag) == set(points[0][1])
            for key, values in diag.items():
                assert _same_bits(values, [d[key] for _, d in points]), key

    def test_beta_block_assembly_equals_points(self):
        # the beta regime builds one hierarchy for the block
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        bvp = osresolvent.build_bvp(p0, n_nodes=400)
        cs = dispersion.disk_beta(p0).point(np.array([0.4, 1.9, 3.3]))
        assert_block_assembly_equals_points(cs, p0, bvp)

    @pytest.mark.parametrize("regime", ["eighth", "beta"])
    def test_winding_round_assembly_equals_points_on_the_default_grid(self, regime):
        # a winding count's first round of 65 points as one block on the
        # 1600-node grid: its arrays hold 104 000 values, past the 16 384 at
        # which numpy computes ``a * temporary`` in place with the operands
        # swapped, a complex product that rounds differently.  No row may
        # differ from its point's own assembly even in the last bit
        if regime == "eighth":
            p0 = SpectralParams.eighth(2.0, 1e-12)
            to_c, disk = p0.chat_to_c, dispersion.disk_eighth(p0)
        else:
            p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
            to_c, disk = (lambda w: w), dispersion.disk_beta(p0)
        bvp = osresolvent.build_bvp(p0)
        assert bvp.n == 1600
        thetas = math.pi / 64 + np.linspace(0.0, 2 * math.pi, 65)
        assert_block_assembly_equals_points(to_c(disk.point(thetas)), p0, bvp)

    def test_first_failing_point_raises_its_own_error(self, monkeypatch):
        # point 1 fails only in its factorization; point 4 has Im c_hat < 0,
        # which a block meets first, in its assembly.  The block raises what
        # the point-by-point loop raises: point 1's error.  Then point 2's
        # magnetic source is not finite: the block's Picard solve fails on
        # the rows it reached through the stacked solve, and the round
        # raises point 2's own error
        p0, bvp, disk = self.round_setup()
        cs = p0.chat_to_c(disk.point(np.linspace(0.3, 2.3, 6)))
        healthy = cs.copy()
        cs[4] = cs[4].real - 2j / p0.n
        band_at = osresolvent._band_at
        solve_magnetic = magnetic.solve_magnetic

        def failing(params, bvp, variant):
            if params.c == cs[1]:
                raise RuntimeError("injected")
            return band_at(params, bvp, variant)

        def points():
            return [osresolvent.remainder_and_gamma(c, p0, bvp) for c in cs]

        def block():
            return osresolvent.remainder_and_gamma(cs, p0, bvp)

        monkeypatch.setattr(osresolvent, "_band_at", failing)
        assert _raised(points) == (SingularSystem, "full factorization failed: injected")
        assert _raised(block) == _raised(points)
        monkeypatch.setattr(osresolvent, "_band_at", band_at)
        assert _raised(points)[0] is ValueError
        assert _raised(block) == _raised(points)

        def nan_source(prob, grid, prof, **kwargs):
            # Gamma solves each block, of one point or more, as a tuple
            for row, q in zip(prob.f, prob.params):
                if q.c == cs[2]:
                    row[len(grid) // 2] = math.nan
            return solve_magnetic(prob, grid, prof, **kwargs)

        cs[:] = healthy
        monkeypatch.setattr(magnetic, "solve_magnetic", nan_source)
        assert _raised(points)[0] is NonConvergence
        assert _raised(block) == _raised(points)


class TestMeasuredResolventScalings:
    def test_os_d_weighted_bound(self):
        # || (dYY - a^2) phi ||_w * Im chat / ||q1||_w stays bounded
        consts = []
        for eps in (1e-8, 1e-10, 1e-12):
            p = basin_params(eps=eps)
            bvp = osresolvent.build_bvp(p, n_nodes=800)
            g = bvp.grid
            q1 = np.exp(-g) * (1.0 + 0.5j)
            fact = osresolvent._Factorized(p, bvp, "os_d")
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

    def __init__(self, params, bvp):
        Y = bvp.grid
        self.d1, self.d2 = stencil_matrix(bvp.d1), stencil_matrix(bvp.d2)
        self.us = DEFAULT_PROFILE.eval("U", 0, Y)
        self.dus = DEFAULT_PROFILE.eval("U", 1, Y)
        self.d2us = DEFAULT_PROFILE.eval("U", 2, Y)
        self.hs = DEFAULT_PROFILE.eval("H", 0, Y)
        self.dhs = DEFAULT_PROFILE.eval("H", 1, Y)
        self.d2hs = DEFAULT_PROFILE.eval("H", 2, Y)
        self.params = params
        self.bvp = bvp

    def magnetic_coupling(self):
        p = self.params
        bvp = self.bvp
        a, n, se, c = p.alpha, p.n, p.sqrt_eps, p.c
        eye = sparse.identity(bvp.n, format="csr", dtype=complex)
        dia = sparse.diags
        a_xi = ((a / n) * dia(self.dhs) @ eye
                + (a / n) * dia(self.hs) @ self.d1
                - (1j * a**2 / n) * eye)
        a_theta = (-se * dia(self.hs) @ self.d2
                   + se * dia(self.d2hs) @ eye
                   - (a / n) * dia(self.dus) @ eye
                   - (a / n) * dia(self.us - c) @ self.d1
                   + a**2 * se * dia(self.hs) @ eye)
        return a_xi.tocsr(), a_theta.tocsr()

    def shear_transport(self):
        return (sparse.diags(self.dus) @ self.d1 + sparse.diags(self.d2us)).tocsr()


def _per_c_assemble(params, bvp, variant):
    """The per-c assembly of the 3N x 3N system, kept as the reference."""
    p = params
    blocks = _PerCBlocks(p, bvp)
    N = bvp.n
    a, n, c, chat = p.alpha, p.n, p.c, p.c_hat
    eye = sparse.identity(N, format="csr", dtype=complex)
    zero = sparse.csr_matrix((N, N), dtype=complex)
    dia = sparse.diags
    d1, d2 = blocks.d1, blocks.d2
    interior = np.ones(N)
    interior[0] = interior[-1] = 0.0
    keep = dia(interior)
    last = ([N - 1], [1.0])

    def with_bc(op_phi, op_omega, op_psi, bc_rows):
        row = [keep @ op_phi, keep @ op_omega, keep @ op_psi]
        for col, i, cols, vals in bc_rows:
            bc = sparse.csr_matrix((vals, (np.full(len(cols), i), cols)), shape=(N, N))
            row[col] = row[col] + bc
        return row

    rowA = with_bc(d2 - a**2 * eye, -eye, zero, [(0, 0, [0], [1.0]), (0, N - 1, *last)])
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
        bc0 = (1, 0, [0], [1.0])
    else:
        bc0 = (0, 0, d1[0].indices, d1[0].data)
    rowB = with_bc(gov_phi, gov_omega, gov_psi, [bc0, (1, N - 1, *last)])
    mag_phi = -1j * a * dia(blocks.hs) @ eye - d1
    mag_psi = -(d2 - a**2 * eye) + 1j * a * dia(blocks.us - c)
    rowC = with_bc(mag_phi, zero, mag_psi, [(2, 0, [0], [1.0]), (2, N - 1, *last)])
    return sparse.bmat([rowA, rowB, rowC], format="csc")


def _to_band(matrix):
    """(band, kl, ku) of a block-order 3N x 3N sparse matrix in node order.

    ``band`` is LAPACK band storage: 2 kl + ku + 1 rows in Fortran order,
    entry (r, j) at row kl + ku + r - j, the first kl rows left zero for the
    LU's fill-in.  The bandwidths are those of the stored pattern.
    """
    N = matrix.shape[0] // 3
    coo = matrix.tocoo()
    # block-order index b N + i is node-order index 3 i + b
    rows, cols = (3 * (k % N) + k // N for k in (coo.row, coo.col))
    offset = rows - cols
    kl, ku = int(offset.max()), int(-offset.min())
    band = np.zeros((2 * kl + ku + 1, 3 * N), dtype=complex, order="F")
    band[kl + ku + offset, cols] = coo.data
    return band, kl, ku


@contextmanager
def counted_views():
    """Count ModeFunction evaluations and spline fits within the block."""
    from scipy import interpolate

    counts = {"eval": 0, "fit": 0}
    evaluate, fit = ModeFunction.eval, interpolate.CubicSpline

    def counted_eval(self, order, Y):
        counts["eval"] += 1
        return evaluate(self, order, Y)

    def counted_fit(x, y):
        counts["fit"] += 1
        return fit(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModeFunction, "eval", counted_eval)
        mp.setattr(interpolate, "CubicSpline", counted_fit)
        yield counts


def assert_handoff(p, bvp, arrays, modes, fast, phi_last):
    """The arrays one assembly handed on, bit for bit: the slow mode against
    its ModeFunction view on the grid, the fast mode against ``fast`` (Phi
    and Psi by order), the magnetic slow mode against a direct solve of its
    problem, and every error array against its terms on those references."""
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    grid = bvp.grid
    view = slowmode.phi_app_s_mode(p)
    slow = [view.eval(k, grid) for k in range(2)]
    phi_f, psi_f = fast
    for got, want in ((modes["slow"], slow), (modes["phi_f"], phi_f),
                      (modes["psi_f"], psi_f)):
        assert len(got) == len(want)
        assert all(same(a, b) for a, b in zip(got, want))
    phi0 = modes["phi0"]
    prof = profile_arrays(grid)
    source = 1j * p.alpha * prof.hs * slow[0] + slow[1]
    prob = magnetic.MagneticProblem(params=(p,), phi_b=(complex(phi0 * psi_f[0][0]),),
                                    f=source[None], decay_rate=min(p.alpha, 1.0))
    psi_s, _ = magnetic.solve_magnetic(prob, grid, prof)
    assert all(same(a, b[0]) for a, b in zip(modes["psi_s"], psi_s))
    for k in (1, 2, 3):
        assert same(arrays[f"e{k}s"], slowmode.slow_errors(
            k, prof, (p,), psi_s, slowmode._slow_pass(grid, prof, (p,)))[0])
    fast_errors = fastmode.fast_errors(grid, prof, (p,), (phi0,), phi_f, psi_f,
                                       phi_last=phi_last)
    for key, want in zip(("e1f", "e2f", "e3f", "ff"), fast_errors):
        assert same(arrays[key], want[0])


class TestPerGridState:
    """Gamma(c) is evaluated from the state its DiscreteBVP holds: the
    stencils, the c-free profile arrays and the operators as A0 + c A1 of
    each (params without c, splitting)."""

    def test_gamma_independent_of_evaluation_order(self):
        # two parameter sets on the same two grids share each bvp's state;
        # any order of the evaluations, each from new bvps, gives the same
        # bits
        def fresh_cases():
            bvps = [osresolvent.build_bvp(SpectralParams.eighth(2.0, 1e-12), n_nodes=n)
                    for n in (300, 360)]
            cases = []
            for A in (2.0, 2.5):
                p0 = SpectralParams.eighth(A, 1e-12)
                disk = dispersion.disk_eighth(p0)
                for bvp in bvps:
                    for th in (0.7, 1.6, 2.5):
                        cases.append((p0.chat_to_c(disk.point(th)), p0, bvp))
            return cases

        def run(order):
            cases = fresh_cases()
            return {i: osresolvent.remainder_and_gamma(*cases[i])[0] for i in order}

        cases = fresh_cases()
        in_order = run(range(len(cases)))
        shuffled = list(range(len(cases)))
        random.Random(3).shuffle(shuffled)
        # interleave: each c visits all four (grid, params) pairs in turn
        interleaved = [i + 3 * j for i in range(3) for j in range(4)]
        for order in (shuffled, interleaved):
            assert run(order) == in_order
        # a point has the same bits in any block of its (grid, params) and
        # at any position in it, also beside a copy of itself
        for first in range(0, len(cases), 3):
            i, j, k = range(first, first + 3)
            for block in ([i, j, k], [k, j, i], [j], [j, i, k, j, i]):
                _, p0, bvp = cases[block[0]]
                cs = np.array([cases[m][0] for m in block])
                gammas = osresolvent.remainder_and_gamma(cs, p0, bvp)[0]
                assert gammas.tobytes() == np.array([in_order[m] for m in block]).tobytes()

    def test_operators_match_per_c_assembly(self):
        # the bands written from the stencils against the band storage of
        # the sparse per-c assembly, entry by entry
        p = basin_params()
        for boundary in ("navier", "noslip"):
            bvp = osresolvent.build_bvp(p, n_nodes=250, boundary=boundary)
            for variant in ("os_d", "os_s", "full"):
                band, kl, ku = osresolvent._band_at(p, bvp, variant)
                ref, ref_kl, ref_ku = _to_band(_per_c_assemble(p, bvp, variant))
                assert (kl, ku) == (ref_kl, ref_ku)
                live = ref != 0
                assert np.array_equal(band != 0, live)
                assert np.max(np.abs(band[live] - ref[live]) / np.abs(ref[live])) <= 1e-14
        # the alternation's leftovers against the per-c couplings
        blocks = _PerCBlocks(p, bvp)
        a_xi, a_theta = blocks.magnetic_coupling()
        it = osresolvent.OSIteration(p, bvp)
        rng = np.random.default_rng(5)
        phi, psi = (rng.standard_normal(bvp.n) + 1j * rng.standard_normal(bvp.n)
                    for _ in range(2))
        for out, ref in ((it.coupling(phi, psi), a_xi @ phi + a_theta @ psi),
                         (it.transport(phi), blocks.shear_transport() @ phi)):
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

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

        monkeypatch.setattr(osresolvent, "_band_at", lambda *args: _to_band(
            _per_c_assemble(*args)))
        for c, gamma in zip(cs, gammas):
            ref = osresolvent.remainder_and_gamma(c, p0, bvp)[0]
            assert abs(gamma - ref) <= 1e-12 * abs(ref)

    def test_cached_arrays_are_read_only(self):
        # the arrays a bvp shares between calls are read-only, and an
        # operator at one c is the caller's own
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=200)
        band = osresolvent._band_at(p, bvp, "os_s")[0]
        band[0, 0] = band[0, 0]
        (op,) = bvp.operators.values()
        for arr in [*bvp.profile, op.band0, op.band1]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_difference_matrices_built_on_first_read(self, monkeypatch):
        # a plain sweep row reads no difference matrix; a full-OS row builds
        # both orders once, on its DiscreteBVP, which keeps its stencils for
        # the operator and the remainder slopes
        from tswave import cli

        built = []
        diff_matrix = osresolvent.diff_matrix

        def counted(grid, order):
            built.append((grid.size, order))
            return diff_matrix(grid, order)

        monkeypatch.setattr(osresolvent, "diff_matrix", counted)
        plain = cli.sweep_row(cli.RunConfig(eps_list=[1e-12]), 1e-12)
        assert plain["status"] == "ok" and built == []
        full = cli.sweep_row(cli.RunConfig(eps_list=[1e-12], full_os=True, grid_n=400),
                             1e-12)
        assert full["status"] == "exact-winding=3"
        assert sorted(built) == [(400, 1), (400, 2)]
        del built[:]
        bvp = osresolvent.build_bvp(SpectralParams.eighth(2.0, 1e-12), n_nodes=400)
        assert bvp.d1 is bvp.d1 and bvp.d2 is bvp.d2
        assert built == [(400, 1), (400, 2)]

    def test_one_profile_build_per_bvp(self, monkeypatch):
        # a sweep row samples the profile arrays once, on its DiscreteBVP,
        # whether it is plain or evaluates Gamma at about 70 wave speeds
        from tswave import cli

        profiles = profile_builds(monkeypatch)
        bvps = []
        build_bvp = osresolvent.build_bvp

        def counted(*args, **kwargs):
            bvps.append(build_bvp(*args, **kwargs))
            return bvps[-1]

        monkeypatch.setattr(osresolvent, "build_bvp", counted)
        for cfg in (cli.RunConfig(eps_list=[1e-12]),
                    cli.RunConfig(eps_list=[1e-12], full_os=True, grid_n=400)):
            del profiles[:], bvps[:]
            cli.sweep_row(cfg, 1e-12)
            assert profiles == [bvp.n for bvp in bvps] == [cfg.grid_n]

    def test_one_operator_build_per_bvp_params_and_splitting(self, monkeypatch):
        # a full-OS row builds its one operator once for every wave speed it
        # evaluates Gamma at; a second bvp on an equal grid builds its own
        from tswave import cli

        built = []
        affine_operator = osresolvent._affine_operator

        def counted(bvp, params, variant):
            built.append((bvp, params, variant))
            return affine_operator(bvp, params, variant)

        monkeypatch.setattr(osresolvent, "_affine_operator", counted)
        cfg = cli.RunConfig(eps_list=[1e-12], full_os=True, grid_n=400)
        row = cli.sweep_row(cfg, 1e-12)
        assert row["status"] == "exact-winding=3"
        assert [variant for _, _, variant in built] == ["full"]
        (bvp, params, _), = built
        assert params.c is None and list(bvp.operators) == [(params, "full")]
        p = basin_params()
        twins = [osresolvent.build_bvp(p, n_nodes=200) for _ in range(2)]
        del built[:]
        for bvp in twins + twins:
            osresolvent.remainder_and_gamma(p.c, p, bvp)
        assert [b for b, _, _ in built] == twins
        (op0,), (op1,) = (bvp.operators.values() for bvp in twins)
        assert op0 is not op1 and np.array_equal(op0.band0, op1.band0)

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
        # every order of the slow mode, of the corrector and of psi_{0,j}
        # comes from one slow-mode pass of the grid, which reads one
        # evaluation of J, K and L and the bvp's profile arrays: per block
        # of wave speeds, whether it holds one point or three
        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=300)
        calls = closed_form_calls(monkeypatch)
        profiles = profile_builds(monkeypatch)
        passes = []
        slow_pass = slowmode._slow_pass

        def counted(Y, prof, params):
            assert prof is bvp.profile
            passes.append(len(params))
            return slow_pass(Y, prof, params)

        monkeypatch.setattr(slowmode, "_slow_pass", counted)
        for c in (p.c, p.c + np.array([0.0, 1e-4, 2e-4j])):
            calls.clear()
            passes.clear()
            osresolvent.assemble_error_terms(c, p, bvp)
            assert calls == [bvp.n]
            assert passes == [np.size(c)]
        assert profiles == [bvp.n]

    def test_error_terms_evaluate_closed_forms_once_and_fit_no_spline(self, monkeypatch):
        # J, K and L are evaluated in one closed-form pass on the grid, and
        # the modes are handed on as grid arrays, with no spline fitted
        from scipy import interpolate

        p = basin_params()
        bvp = osresolvent.build_bvp(p, n_nodes=1600)
        calls = []
        for name in ("inv_square_integral", "critical_layer_integrals"):
            method = getattr(HartmannProfile, name)

            def counted(self, Y, chat, method=method, name=name):
                if np.size(Y) > 1:
                    calls.append(name)
                return method(self, Y, chat)

            monkeypatch.setattr(HartmannProfile, name, counted)
        fits = []
        spline = interpolate.CubicSpline

        def counted_fit(x, y):
            fits.append(1)
            return spline(x, y)

        monkeypatch.setattr(interpolate, "CubicSpline", counted_fit)
        osresolvent.assemble_error_terms(p.c, p, bvp)
        assert calls == ["critical_layer_integrals"]
        assert fits == []

    def test_beta_error_terms_fit_no_spline(self):
        # the assembly hands the hierarchy's level sums and top level on as
        # grid arrays, evaluates no ModeFunction and fits no spline; every
        # array is the one of the hierarchy and of the separate solves
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        p = p0.with_c(dispersion.center_beta(p0))
        bvp = osresolvent.build_bvp(p, n_nodes=400)
        with counted_views() as views:
            arrays, _, modes = osresolvent.assemble_error_terms(p.c, p, bvp)
        assert views == {"eval": 0, "fit": 0}
        hier = fastmode.ExpFastHierarchy((p,), grid=bvp.grid)
        fast = ([hier.sum_arrays("Phi", o)[0] for o in range(2)],
                [hier.sum_arrays("Psi", o)[0] for o in range(2)])
        assert_handoff(p, bvp, arrays, modes, fast,
                       (hier.phi_levels[-1][0], hier.dphi_levels[-1][0]))

    @pytest.mark.parametrize("A, eps, t", [(2.0, 1e-12, 2.0), (3.0, 1e-15, 0.5),
                                           (4.0, 1e-24, 1.0)])
    def test_error_terms_evaluate_airy_once_at_the_wall(self, A, eps, t, monkeypatch):
        # Gamma0's Ai(1, z0) and Ai(2, z0), the fast pair's denominator,
        # Psi_f(0) and the error terms' block on the grid come from one Airy
        # evaluation per block of wave speeds, here three; every value is the
        # one of the separate evaluations, bit for bit.  At the first two
        # wave speeds Gamma0's array-formed z0 can differ from params.z0 in
        # its last bit.
        p0 = SpectralParams.eighth(A, eps)
        disk = dispersion.disk_eighth(p0)
        cs = p0.chat_to_c(disk.center + 0.5 * disk.radius * np.exp(1j * (t + np.arange(3.0))))
        bvp = osresolvent.build_bvp(p0, n_nodes=400)
        calls = []
        ai_any = airy._ai_any

        def counted(k, z):
            calls.append((k, np.size(z)))
            return ai_any(k, z)

        monkeypatch.setattr(airy, "_ai_any", counted)
        with counted_views() as views:
            block = osresolvent.assemble_error_terms(cs, p0, bvp)
        assert calls == [((0, 1, 2, 3), cs.size * (bvp.n + 2))]
        assert views == {"eval": 0, "fit": 0}

        monkeypatch.setattr(airy, "_ai_any", ai_any)
        for j, c in enumerate(cs):
            p = p0.with_c(c)
            arrays, gamma0_val, modes = osresolvent._point(block, j)
            assert gamma0_val == dispersion.gamma0(p.c, p)
            phi_f, psi_f = fast_mode_pair(p)
            fast = ([phi_f.eval(o, bvp.grid) for o in range(3)],
                    [psi_f.eval(o, bvp.grid) for o in range(2)])
            assert modes["psi_f"][0][0] == psi_f.eval(0, 0.0)
            assert_handoff(p, bvp, arrays, modes, fast, None)
