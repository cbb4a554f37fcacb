import cmath
import math

import numpy as np
import pytest
import scipy.special

from oracles import airy_ratios, fast_mode_pair, hierarchy_full_grid, mode_from_grid
from tswave import airy, dispersion, fastmode, osresolvent
from tswave.errors import RegimeMismatch, UnsupportedOrder
from tswave.params import SpectralParams
from tswave.profile import profile_arrays


@pytest.fixture(scope="module")
def eighth_params():
    p0 = SpectralParams.eighth(2.0, 1e-10)
    return p0.with_c(dispersion.center_c(p0))


@pytest.fixture(scope="module")
def beta_params():
    # parameters inside the hierarchy's contraction regime
    p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
    return p0.with_c(dispersion.center_beta(p0))


def airy_fast(which, order, Y, p):
    """The Airy fast mode at Y on the Airy ratios of Y."""
    return fastmode.airy_fast(which, order, Y, p, airy_ratios(Y, p))


def airy_arrays(Y, p, ratios=None):
    """The Airy fast mode at Y by order: Phi to order 2, Psi to order 1."""
    if ratios is None:
        ratios = airy_ratios(Y, p)
    return ([fastmode.airy_fast("Phi", o, Y, p, ratios) for o in range(3)],
            [fastmode.airy_fast("Psi", o, Y, p, ratios) for o in range(2)])


def hierarchy_arrays(hier):
    """The hierarchy's level sums by order: Phi and Psi to order 1."""
    return ([hier.sum_arrays("Phi", o) for o in range(2)],
            [hier.sum_arrays("Psi", o) for o in range(2)])


class TestAiryFast:
    def test_wall_normalization(self, eighth_params):
        assert airy_fast("Phi", 0, 0.0, eighth_params) == pytest.approx(1.0)

    def test_wall_slope_is_airy_ratio(self, eighth_params):
        p = eighth_params
        expect = airy.ai_k(1, p.z0) / airy.ai_k(2, p.z0) / p.delta
        assert airy_fast("Phi", 1, 0.0, p) == pytest.approx(expect, rel=1e-12)

    def test_scales_validation(self, eighth_params):
        fastmode.check_sublayer_scales(eighth_params)
        assert -5 * math.pi / 6 < np.angle(eighth_params.z0) < -5 * math.pi / 6 + 0.2

    def test_decay_envelope_with_measured_tau(self, eighth_params):
        p = eighth_params
        tau1 = fastmode.measure_tau1(p)
        assert tau1 > 0.3
        n13 = p.n ** (1.0 / 3.0)
        val = abs(airy_fast("Phi", 0, 5.0 / n13, p))
        assert val <= 5.0 * math.exp(-5.0 * tau1)

    def test_fourth_order_residual_on_airy_chain(self, eighth_params):
        p = eighth_params
        n13 = p.n ** (1.0 / 3.0)
        Y = np.linspace(0.0, 6.0 / n13, 30)
        # Phi'''' = delta^-4 Ai''(zeta) / Ai(2, z0), with Ai'' = zeta Ai
        zeta = Y / p.delta + p.z0
        d4phi = p.delta**-4 * zeta * scipy.special.airy(zeta)[0] / airy.ai_k(2, p.z0)
        resid = (1j / p.n) * d4phi + (Y - p.c_hat) * airy_fast("Phi", 2, Y, p)
        assert np.max(np.abs(resid)) <= 1e-6 * p.n ** (4.0 / 3.0)

    def test_magnetic_linkage(self, eighth_params):
        p = eighth_params
        Y = np.linspace(0.0, 0.4, 25)
        d2psi = airy_fast("Psi", 2, Y, p)
        d1phi = airy_fast("Phi", 1, Y, p)
        scale = np.max(np.abs(d1phi))
        assert np.max(np.abs(d2psi + d1phi)) <= 1e-8 * scale

    def test_regime_and_order_checks(self, beta_params, eighth_params):
        with pytest.raises(RegimeMismatch):
            fastmode.airy_fast("Phi", 0, 0.0, beta_params, np.ones((4, 1)))
        for which in ("Phi", "Psi"):
            with pytest.raises(UnsupportedOrder):
                airy_fast(which, 3, 0.0, eighth_params)

    def test_weighted_norm_scalings(self):
        # || |U_s''|^{-1/2} Y^pow d^k Phi_f || ~ n^{(k-pow)/3 - 1/6}
        from tswave.numerics import graded_grid, l2_norm, trap_weights
        from tswave.profile import DEFAULT_PROFILE
        consts = {}
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            p = p0.with_c(dispersion.center_c(p0))
            g = graded_grid(1500, 40.0, cluster_scale=p.n ** (-1.0 / 3.0))
            wts = trap_weights(g)
            wgt = 1.0 / np.sqrt(np.abs(DEFAULT_PROFILE.eval("U", 2, g)))
            for k in (0, 2):
                for pow_ in (0, 2):
                    vals = g ** pow_ * airy_fast("Phi", k, g, p)
                    norm = l2_norm(vals, wts, wgt)
                    key = (k, pow_)
                    consts.setdefault(key, []).append(
                        norm / p.n ** ((k - pow_) / 3.0 - 1.0 / 6.0))
        for key, vals in consts.items():
            assert max(vals) / min(vals) <= 4.0, (key, vals)


class TestExpHierarchy:
    def test_zeroth_level_is_exponential(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy((p,), n_terms=1)
        Y = hier.grid[0, :200]
        assert np.allclose(hier.phi_levels[0], np.exp(-p.varpi * hier.grid),
                           atol=1e-14)
        assert np.max(np.abs(hier.psi_levels[0][0, :200]
                             - np.exp(-p.varpi * Y) / p.varpi)) < 1e-12

    def test_psi_levels_formed_on_first_use(self, beta_params):
        hier = fastmode.ExpFastHierarchy((beta_params,), n_terms=2)
        assert "psi_levels" not in vars(hier)
        psi = hier.psi_levels
        assert len(psi) == 3 and hier.psi_levels is psi

    def test_higher_levels_vanish_at_wall(self, beta_params):
        hier = fastmode.ExpFastHierarchy((beta_params,), n_terms=3)
        for k in (1, 2, 3):
            assert abs(hier.phi_levels[k][0, 0]) < 1e-13

    def test_level_envelope_ratio(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy((p,), n_terms=3)
        m1 = np.max(np.abs(hier.phi_levels[1]))
        m2 = np.max(np.abs(hier.phi_levels[2]))
        assert m2 / m1 <= 4.0 * p.alpha ** p.nu0

    def test_level_equation_residual(self, beta_params):
        # (i/n) Phi_k'' - c Phi_k = rhs_k, the second derivative by
        # differencing Phi_k', the source from the whole-grid recurrence
        p = beta_params
        hier = fastmode.ExpFastHierarchy((p,), n_terms=2)
        g = hier.grid[0]
        k = 1
        i = slice(10, 400, 13)
        rhs = hierarchy_full_grid(p, g, hier.n_terms)["rhs"][k]
        dd = np.gradient(hier.dphi_levels[k][0], g)
        resid = (1j / p.n) * dd - p.c * hier.phi_levels[k][0] - rhs
        assert np.max(np.abs(resid[i])) <= 2e-2 * np.max(np.abs(rhs))

    def test_exp_fast_wrapper(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy((p,))
        assert hier.grid[0, 0] == 0.0
        val = hier.sum_arrays("Phi", 0)[0, 0]
        # sum over levels: level 0 contributes 1, the rest vanish at the wall
        assert val == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(RegimeMismatch):
            fastmode.ExpFastHierarchy((SpectralParams.eighth(2.0, 1e-10, c=0.1 + 0.01j),))

    def test_exp_fast_bare_exponential(self, beta_params):
        p = beta_params
        Y = np.linspace(0.0, 0.2, 9)
        hier = fastmode.ExpFastHierarchy((p,), n_terms=0)
        vals = mode_from_grid(hier.grid[0], [hier.sum_arrays("Phi", 0)[0]]).eval(0, Y)
        assert np.max(np.abs(vals - np.exp(-p.varpi * Y))) < 1e-10

    def test_linkage(self, beta_params):
        hier = fastmode.ExpFastHierarchy((beta_params,), n_terms=2)
        d2psi = hier.sum_arrays("Psi", 2)
        d1phi = hier.sum_arrays("Phi", 1)
        assert np.max(np.abs(d2psi + d1phi)) == 0.0


def disk_params(beta, eps):
    """The disk center and 8 boundary points of the beta-regime disk."""
    p0 = SpectralParams.beta_regime(1.0, beta, eps)
    disk = dispersion.disk_beta(p0)
    return [p0.with_c(c) for c in
            [disk.center] + [disk.point(2.0 * math.pi * j / 8) for j in range(8)]]


def assert_matches_full_grid(hier):
    """Each row of the hierarchy's levels against the whole-grid recurrence
    of its point alone, bit for bit."""
    grids = np.broadcast_to(hier.grid, (len(hier.params), hier.grid.shape[-1]))
    for j, (p, grid) in enumerate(zip(hier.params, grids)):
        want = hierarchy_full_grid(p, grid, hier.n_terms)
        for name in ("phi", "dphi", "psi"):
            got, levels = getattr(hier, f"{name}_levels"), want[name]
            assert len(got) == len(levels)
            for k, (a, b) in enumerate(zip(got, levels)):
                assert a[j].tobytes() == b.tobytes(), (j, name, k)


def exp_integral_lengths(monkeypatch):
    """Record the grid length of every exp-kernel integral the hierarchy runs."""
    lengths = []
    for name in ("backward_exp_integral", "forward_exp_integral"):
        def counted(vals, grid, kern, _fn=getattr(fastmode, name)):
            lengths.append(grid.shape[-1])
            return _fn(vals, grid, kern)

        monkeypatch.setattr(fastmode, name, counted)
    return lengths


class TestCutHierarchy:
    @pytest.mark.parametrize("beta, eps", [(0.1075, 1e-16), (0.1075, 1e-20),
                                           (0.1075, 1e-24), (0.11, 1e-28),
                                           (0.115, 1.17e-42)])
    @pytest.mark.parametrize("on_bvp_grid", [False, True], ids=["default", "bvp"])
    def test_levels_match_full_grid(self, beta, eps, on_bvp_grid):
        # each point alone, then the disk's nine points as one block: on
        # their own default grids the rows reach different cuts, and the
        # block runs on the largest
        points = disk_params(beta, eps)
        grid = osresolvent.build_bvp(points[0]).grid if on_bvp_grid else None
        for block in [(p,) for p in points] + [tuple(points)]:
            for n_terms in (0, 1, None):
                assert_matches_full_grid(
                    fastmode.ExpFastHierarchy(block, grid=grid, n_terms=n_terms))

    def test_support_reaching_the_end_runs_on_the_whole_grid(self, monkeypatch):
        # level 0 is nonzero up to node 1985 and the later levels up to 1999
        p = disk_params(0.1075, 1e-8)[0]
        lengths = exp_integral_lengths(monkeypatch)
        hier = fastmode.ExpFastHierarchy((p,))
        supports = [np.flatnonzero(phi[0])[-1] for phi in hier.phi_levels]
        assert supports[0] < 1999 and supports[-1] == 1999
        assert lengths == [2000] * (2 * hier.n_terms)
        assert_matches_full_grid(hier)

    def test_support_crossing_the_cut_reruns_on_the_whole_grid(self, monkeypatch):
        # 14 levels whose support grows from node 1894 to 1970: the margin
        # kept past level 0 is crossed, and the levels are rebuilt
        p = disk_params(0.12, 1e-8)[0]
        lengths = exp_integral_lengths(monkeypatch)
        hier = fastmode.ExpFastHierarchy((p,))
        supports = [np.flatnonzero(phi[0])[-1] for phi in hier.phi_levels]
        cut = lengths[0]
        assert hier.n_terms == 14 and supports[0] < cut <= supports[-1] < 1999
        assert lengths == [cut] * 28 + [2000] * 28
        assert_matches_full_grid(hier)

    def test_block_reruns_on_the_whole_grid_when_one_row_does(self, monkeypatch):
        # at beta = 0.12, eps = 1e-8 the disk center crosses its cut, and the
        # point at twice its c turned by half a radian holds its own cut
        # (1686 nodes): in one block both rows run again on the whole grid,
        # and each equals the whole-grid recurrence of its point alone
        rerun = disk_params(0.12, 1e-8)[0]
        holds = rerun.with_c(2.0 * rerun.c * cmath.exp(0.5j))
        lengths = exp_integral_lengths(monkeypatch)
        fastmode.ExpFastHierarchy((holds,))
        assert lengths == [1686] * 28
        for block in ((rerun, holds), (holds, rerun)):
            lengths.clear()
            hier = fastmode.ExpFastHierarchy(block)
            assert lengths == [lengths[0]] * 28 + [2000] * 28 and lengths[0] < 2000
            assert_matches_full_grid(hier)

    def test_one_exp_kernel_per_levels_pass(self, monkeypatch):
        # each pass of the level recurrence builds one exp kernel of varpi on
        # its nodes, and every integral of the pass reads it: here 14 levels
        # on the cut, then 14 on the whole grid
        p = disk_params(0.12, 1e-8)[0]
        kernels, reads = [], []
        build = fastmode.exp_kernel

        def counted(grid, xi):
            kernels.append(build(grid, xi))
            return kernels[-1]

        monkeypatch.setattr(fastmode, "exp_kernel", counted)
        for name in ("backward_exp_integral", "forward_exp_integral"):
            def read(vals, grid, kern, _fn=getattr(fastmode, name), **kwargs):
                reads.append(kern)
                return _fn(vals, grid, kern, **kwargs)

            monkeypatch.setattr(fastmode, name, read)
        fastmode.ExpFastHierarchy((p,))
        assert [k.xi.tolist() for k in kernels] == [[p.varpi]] * 2
        assert kernels[0].h.size < kernels[1].h.size == 1999
        assert len(reads) == 56
        assert all(k is kernels[0] for k in reads[:28])
        assert all(k is kernels[1] for k in reads[28:])

    def test_gamma0_beta_runs_on_the_support(self, monkeypatch):
        # e^{-varpi Y} is nonzero on 622 of the 2000 nodes at this disk center
        p = disk_params(0.1075, 1e-24)[0]
        lengths = exp_integral_lengths(monkeypatch)
        dispersion.gamma0_beta(p.c, p)
        assert lengths and max(lengths) <= 800


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
            hier = fastmode.ExpFastHierarchy((p,), grid=bvp.grid)
            phi0, _ = slowmode.boundary_values(p)
            ff = fastmode.fast_errors(
                bvp.grid, bvp.profile, (p,), phi0, *hierarchy_arrays(hier),
                phi_last=(hier.phi_levels[-1], hier.dphi_levels[-1]))[3]
            vals[eps] = (p.alpha, l2_norm(ff[0], trap_weights(bvp.grid)))
        (a1, n1), (a2, n2) = vals.values()
        slope = (np.log(n2) - np.log(n1)) / (np.log(a2) - np.log(a1))
        nu0 = (1 - 8 * 0.1075) / (4 * 0.1075)
        assert slope >= 1.0 + 1.5 * (1.0 + nu0) - 0.1

    def test_zero_prefactor(self, eighth_params):
        p = eighth_params
        Y = np.linspace(0.0, 1.0, 9)
        vals = fastmode.fast_errors(Y, profile_arrays(Y), (p,), (0.0,), *airy_arrays(Y, p))
        assert np.max(np.abs(vals)) == 0.0

    def test_beta_group_needs_top_level(self, beta_params):
        p = beta_params
        hier = fastmode.ExpFastHierarchy((p,), n_terms=2)
        with pytest.raises(ValueError):
            fastmode.fast_errors(hier.grid[0], profile_arrays(hier.grid[0]), (p,),
                                 (1.0,), *hierarchy_arrays(hier))


class TestFastModePair:
    def test_one_airy_evaluation_per_primitive_and_grid(self, eighth_params,
                                                        monkeypatch):
        # the four error groups read Phi orders 0..2 and Psi orders 0..1, which
        # are the primitives k = 0..3: one block of them over one denominator
        # Ai(2, z0) serves every order, and airy_fast evaluates none itself;
        # the ModeFunction view of the pair is airy_fast at any Y
        p = eighth_params
        Y = np.linspace(0.0, 2.0, 33)
        ratios = airy._ai_any((0, 1, 2, 3), Y / p.delta + p.z0) / airy.ai_k(2, p.z0)
        calls = []
        ai_any = airy._ai_any

        def counted(k, z):
            calls.append((k, np.size(z)))
            return ai_any(k, z)

        monkeypatch.setattr(airy, "_ai_any", counted)
        phi_f, psi_f = fast_mode_pair(p)
        for which, mode in (("Phi", phi_f), ("Psi", psi_f)):
            for order in range(3):
                del calls[:]
                ref = mode.eval(order, Y)
                assert calls == [((0, 1, 2, 3), Y.size), (2, 1)]
                del calls[:]
                assert np.array_equal(fastmode.airy_fast(which, order, Y, p, ratios), ref)
                assert calls == []
        del calls[:]
        phi, psi = airy_arrays(Y, p, ratios)
        fastmode.fast_errors(Y, profile_arrays(Y), (p,), (0.7 - 0.1j,), phi, psi)
        assert calls == []

    def test_regime_check(self, beta_params):
        with pytest.raises(RegimeMismatch):
            fast_mode_pair(beta_params)
