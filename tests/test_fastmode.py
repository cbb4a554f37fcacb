import math

import numpy as np
import pytest

from tswave import airy, dispersion, fastmode
from tswave.errors import RegimeMismatch, UnsupportedOrder
from tswave.params import SpectralParams


@pytest.fixture(scope="module")
def eighth_params():
    p0 = SpectralParams.eighth(2.0, 1e-10)
    return p0.with_c(p0.chat_to_c(dispersion.center_eighth(p0)))


@pytest.fixture(scope="module")
def beta_params():
    # parameters inside the hierarchy's contraction regime
    p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
    return p0.with_c(dispersion.center_beta(p0))


class TestAiryFast:
    def test_wall_normalization(self, eighth_params):
        assert fastmode.airy_fast("Phi", 0, 0.0, eighth_params) == pytest.approx(1.0)

    def test_wall_slope_is_airy_ratio(self, eighth_params):
        p = eighth_params
        expect = airy.ai_k(1, p.z0) / airy.ai_k(2, p.z0) / p.delta
        assert fastmode.airy_fast("Phi", 1, 0.0, p) == pytest.approx(expect, rel=1e-12)

    def test_scales_validation(self, eighth_params):
        scales = fastmode.SublayerScales.from_params(eighth_params)
        assert scales.varpi is None
        assert -5 * math.pi / 6 < np.angle(scales.z0) < -5 * math.pi / 6 + 0.2

    def test_decay_envelope_with_measured_tau(self, eighth_params):
        p = eighth_params
        tau1 = fastmode.measure_tau1(p)
        assert tau1 > 0.3
        n13 = p.n ** (1.0 / 3.0)
        val = abs(fastmode.airy_fast("Phi", 0, 5.0 / n13, p))
        assert val <= 5.0 * math.exp(-5.0 * tau1)

    def test_fourth_order_residual_on_airy_chain(self, eighth_params):
        p = eighth_params
        n13 = p.n ** (1.0 / 3.0)
        Y = np.linspace(0.0, 6.0 / n13, 30)
        resid = ((1j / p.n) * fastmode.airy_fast("Phi", 4, Y, p)
                 + (Y - p.c_hat) * fastmode.airy_fast("Phi", 2, Y, p))
        assert np.max(np.abs(resid)) <= 1e-6 * p.n ** (4.0 / 3.0)

    def test_magnetic_linkage(self, eighth_params):
        p = eighth_params
        Y = np.linspace(0.0, 0.4, 25)
        d2psi = fastmode.airy_fast("Psi", 2, Y, p)
        d1phi = fastmode.airy_fast("Phi", 1, Y, p)
        scale = np.max(np.abs(d1phi))
        assert np.max(np.abs(d2psi + d1phi)) <= 1e-8 * scale

    def test_regime_and_order_checks(self, beta_params, eighth_params):
        with pytest.raises(RegimeMismatch):
            fastmode.airy_fast("Phi", 0, 0.0, beta_params)
        with pytest.raises(UnsupportedOrder):
            fastmode.airy_fast("Psi", 3, 0.0, eighth_params)

    def test_weighted_norm_scalings(self):
        # || |U_s''|^{-1/2} Y^pow d^k Phi_f || ~ n^{(k-pow)/3 - 1/6}
        from tswave.numerics import graded_grid, l2_norm, trap_weights
        from tswave.profile import DEFAULT_PROFILE
        consts = {}
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            p = p0.with_c(p0.chat_to_c(dispersion.center_eighth(p0)))
            g = graded_grid(1500, 40.0, cluster_scale=p.n ** (-1.0 / 3.0))
            wts = trap_weights(g)
            wgt = 1.0 / np.sqrt(np.abs(DEFAULT_PROFILE.eval("U", 2, g)))
            for k in (0, 2):
                for pow_ in (0, 2):
                    vals = g ** pow_ * fastmode.airy_fast("Phi", k, g, p)
                    norm = l2_norm(vals, wts, wgt)
                    key = (k, pow_)
                    consts.setdefault(key, []).append(
                        norm / p.n ** ((k - pow_) / 3.0 - 1.0 / 6.0))
        for key, vals in consts.items():
            assert max(vals) / min(vals) <= 4.0, (key, vals)


class TestExpHierarchy:
    def test_zeroth_level_is_exponential(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy(p, n_terms=1)
        Y = hier.grid[:200]
        assert np.allclose(hier.phi_levels[0], np.exp(-p.varpi * hier.grid),
                           atol=1e-14)
        assert np.max(np.abs(hier.psi_levels[0][:200]
                             - np.exp(-p.varpi * Y) / p.varpi)) < 1e-12

    def test_psi_levels_formed_on_first_use(self, beta_params):
        hier = fastmode.ExpFastHierarchy(beta_params, n_terms=2)
        assert "psi_levels" not in vars(hier)
        psi = hier.psi_levels
        assert len(psi) == 3 and hier.psi_levels is psi

    def test_higher_levels_vanish_at_wall(self, beta_params):
        hier = fastmode.ExpFastHierarchy(beta_params, n_terms=3)
        for k in (1, 2, 3):
            assert abs(hier.phi_levels[k][0]) < 1e-13

    def test_level_envelope_ratio(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy(p, n_terms=3)
        m1 = np.max(np.abs(hier.phi_levels[1]))
        m2 = np.max(np.abs(hier.phi_levels[2]))
        assert m2 / m1 <= 4.0 * p.alpha ** p.nu0

    def test_level_equation_residual(self, beta_params):
        # (i/n) Phi_k'' - c Phi_k = rhs_k, second derivative from the stored
        # channel (built from the equation) cross-checked by differencing Phi_k'
        p = beta_params
        hier = fastmode.ExpFastHierarchy(p, n_terms=2)
        g = hier.grid
        k = 1
        i = slice(10, 400, 13)
        d1 = hier.dphi_levels[k]
        dd = np.gradient(d1, g)
        resid = (1j / p.n) * dd - p.c * hier.phi_levels[k] - hier.rhs_levels[k]
        scale = np.max(np.abs(hier.rhs_levels[k]))
        assert np.max(np.abs(resid[i])) <= 2e-2 * scale
        exact = hier.d2phi_levels[k]
        assert np.max(np.abs((1j / p.n) * exact - p.c * hier.phi_levels[k]
                             - hier.rhs_levels[k])) <= 1e-12 * scale

    def test_exp_fast_wrapper(self, beta_params):
        p = beta_params
        val = fastmode.ExpFastHierarchy(p).mode("Phi").eval(0, 0.0)
        # sum over levels: level 0 contributes 1, the rest vanish at the wall
        assert val == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(RegimeMismatch):
            fastmode.ExpFastHierarchy(SpectralParams.eighth(2.0, 1e-10, c=0.1 + 0.01j))

    def test_exp_fast_bare_exponential(self, beta_params):
        p = beta_params
        Y = np.linspace(0.0, 0.2, 9)
        vals = fastmode.ExpFastHierarchy(p, n_terms=0).mode("Phi").eval(0, Y)
        assert np.max(np.abs(vals - np.exp(-p.varpi * Y))) < 1e-10

    def test_linkage(self, beta_params):
        hier = fastmode.ExpFastHierarchy(beta_params, n_terms=2)
        d2psi = hier.sum_arrays("Psi", 2)
        d1phi = hier.sum_arrays("Phi", 1)
        assert np.max(np.abs(d2psi + d1phi)) == 0.0


class TestFastErrors:
    def test_beta_magnetic_error_norm_slope(self):
        # ||F_beta^f|| <~ alpha^{1 + (3/2)(1 + nu0)}; with the shipped
        # h_inf = 1 the magnetic background vanishes at the wall and the
        # measured decay is steeper than the bound (slope ~ 5.2)
        from tswave import dispersion, osresolvent, slowmode
        from tswave.numerics import l2_norm, trap_weights
        vals = {}
        for eps in (1e-24, 1e-26):
            p0 = SpectralParams.beta_regime(1.0, 0.1075, eps)
            p = p0.with_c(dispersion.center_beta(p0))
            bvp = osresolvent.build_bvp(p, n_nodes=1600)
            hier = fastmode.ExpFastHierarchy(p, grid=bvp.grid)
            phi0, _ = slowmode.boundary_values(p)
            ff = fastmode.fast_errors("Ff_beta", bvp.grid, p, phi0,
                                      hier.mode("Phi"), hier.mode("Psi"),
                                      phi_last=hier.level_mode(hier.n_terms))
            vals[eps] = (p.alpha, l2_norm(ff, trap_weights(bvp.grid)))
        (a1, n1), (a2, n2) = vals.values()
        slope = (np.log(n2) - np.log(n1)) / (np.log(a2) - np.log(a1))
        nu0 = (1 - 8 * 0.1075) / (4 * 0.1075)
        assert slope >= 1.0 + 1.5 * (1.0 + nu0) - 0.1

    def test_zero_prefactor(self, eighth_params):
        p = eighth_params
        phi_f, psi_f = fastmode.fast_mode_pair(p)
        Y = np.linspace(0.0, 1.0, 9)
        vals = fastmode.fast_errors("Ff", Y, p, 0.0, phi_f, psi_f)
        assert np.max(np.abs(vals)) == 0.0

    def test_beta_group_needs_top_level(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy(p, n_terms=2)
        with pytest.raises(ValueError):
            fastmode.fast_errors("E1f_beta", np.array([0.1]), p, 1.0,
                                 hier.mode("Phi"), hier.mode("Psi"))

    def test_unknown_group(self, eighth_params):
        phi_f, psi_f = fastmode.fast_mode_pair(eighth_params)
        with pytest.raises(ValueError):
            fastmode.fast_errors("bogus", np.array([0.1]), eighth_params, 1.0,
                                 phi_f, psi_f)


class TestFastModePair:
    def test_one_airy_evaluation_per_primitive_and_grid(self, eighth_params,
                                                        monkeypatch):
        # the four error groups read Phi orders 0..2 and Psi orders 0..1, which
        # are the primitives k = 0..3; each is evaluated once per grid
        p = eighth_params
        calls = []
        ai_any = airy._ai_any

        def counted(k, z):
            calls.append((k, np.size(z)))
            return ai_any(k, z)

        monkeypatch.setattr(airy, "_ai_any", counted)
        phi_f, psi_f = fastmode.fast_mode_pair(p)
        grids = [np.linspace(0.0, 2.0, 33), np.linspace(0.0, 3.0, 40)]
        for Y in grids + grids:
            for group in ("E1f", "E2f", "E3f", "Ff"):
                fastmode.fast_errors(group, Y, p, 0.7 - 0.1j, phi_f, psi_f)
        on_grids = sorted(call for call in calls if call[1] > 1)
        assert on_grids == sorted((k, Y.size) for k in range(4) for Y in grids)

        monkeypatch.setattr(airy, "_ai_any", ai_any)
        for Y in grids:
            for which, mode, top in (("Phi", phi_f, 4), ("Psi", psi_f, 2)):
                for order in range(top + 1):
                    assert np.array_equal(mode.eval(order, Y),
                                          fastmode.airy_fast(which, order, Y, p))

    def test_regime_check(self, beta_params):
        with pytest.raises(RegimeMismatch):
            fastmode.fast_mode_pair(beta_params)
