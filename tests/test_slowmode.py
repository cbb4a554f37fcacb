import math

import numpy as np
import pytest

import oracles
from oracles import (Segment, closed_form_calls, mode_from_grid, quad_segment,
                     quadrature_integrals, rayleigh_apply)
from tswave import dispersion, osresolvent, slowmode
from tswave.params import SpectralParams
from tswave.profile import DEFAULT_PROFILE, profile_arrays

P12 = SpectralParams.eighth(2.0, 1e-12)
CENTER12 = (2.0 + np.exp(1j * math.pi / 4.0) / 2.0) * 1e-12 ** 0.125


def params_at(chat=None, eps=1e-12, A=2.0):
    p0 = SpectralParams.eighth(A, eps)
    chat = CENTER12 if chat is None else chat
    return p0.with_c(p0.chat_to_c(chat))


def residual_form(Y, p):
    """The closed-form Rayleigh residual at Y, from a slow-mode pass there."""
    return slowmode.rayleigh_residual_form(
        slowmode._slow_pass(Y, profile_arrays(Y), (p,)), p.alpha)[0]


def beta_params():
    # the beta-regime disk center, where c_hat is an order of magnitude
    # smaller than at the eighth-regime points
    p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-20)
    return p0.with_c(dispersion.center_beta(p0))


class TestPsi0:
    def test_regular_solution_at_wall(self):
        p = params_at()
        assert oracles.psi0(1, 0, 0.0, p) == pytest.approx(-p.c_hat)

    def test_critical_solution_vanishes_at_one(self):
        p = params_at()
        assert abs(oracles.psi0(2, 0, 1.0, p)) < 1e-14

    def test_wall_value_against_quadrature_oracle(self):
        # small wave speed: psi_{0,2}(0) = -1 + r with |r| <= C |chat log Im chat|
        p0 = SpectralParams.eighth(1.0, (0.05) ** 8)  # alpha small, chat free
        chat = 0.05 + 0.005j
        p = p0.with_c(p0.chat_to_c(chat))
        val = oracles.psi0(2, 0, 0.0, p)

        def integrand(t):
            return 1.0 / (1.0 - np.exp(-np.real(t)) - chat) ** 2

        oracle = -chat * (-quad_segment(integrand, Segment(0.0, 1.0), rel_tol=1e-12))
        assert val == pytest.approx(oracle, rel=1e-10)
        r = val + 1.0
        assert abs(r) <= 3.0 * abs(chat * np.log(chat.imag))

    def test_derivative_orders_vs_finite_differences(self):
        p = params_at()
        h = 1e-6
        for j in (1, 2):
            for k in (0, 1, 2):
                for Y in (0.4, 1.7):
                    fd = (oracles.psi0(j, k, Y + h, p) - oracles.psi0(j, k, Y - h, p)) / (2 * h)
                    assert fd == pytest.approx(oracles.psi0(j, k + 1, Y, p), rel=2e-8, abs=1e-8)

    def test_quadrature_method_matches_closed(self):
        p = params_at()
        for Y in (0.0, 0.5, 1.8, 4.0):
            a = oracles.psi0(2, 0, Y, p)
            with quadrature_integrals():
                b = oracles.psi0(2, 0, Y, p)
            assert complex(np.atleast_1d(a)[0]) == pytest.approx(
                complex(np.atleast_1d(b)[0]), rel=1e-9, abs=1e-12)

    def test_pointwise_growth_bounds_across_sweep(self):
        # |psi_{0,2}| <= C (1+Y) for Y >= 1 and <= C on [0,1], C stable in eps
        maxima = []
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            p = p0.with_c(p0.chat_to_c((2.0 + np.exp(1j * math.pi / 4) / 2.0) * eps ** 0.125))
            Y1 = np.linspace(1.0, 40.0, 300)
            v1 = np.max(np.abs(oracles.psi0(2, 0, Y1, p)) / (1.0 + Y1))
            Y0 = np.linspace(0.0, 1.0, 200)
            v0 = np.max(np.abs(oracles.psi0(2, 0, Y0, p)))
            maxima.append(max(v0, v1))
        for earlier, later in zip(maxima, maxima[1:]):
            assert later <= 1.2 * earlier + 0.5


class TestCorrector:
    def test_wall_value_closed_form(self):
        p = params_at()
        psi02_0 = oracles.psi0(2, 0, 0.0, p)
        val = oracles.phi1s(0, 0.0, p)
        expect = -psi02_0 * (1.0 - 2.0 * p.c_hat)
        assert complex(np.atleast_1d(val)[0]) == pytest.approx(complex(psi02_0 * 0 + expect))

    def test_derivatives_vs_finite_differences(self):
        p = params_at()
        h = 1e-6
        for k in (1, 2, 3):
            fd = (oracles.phi1s(k - 1, 2.0 + h, p) - oracles.phi1s(k - 1, 2.0 - h, p)) / (2 * h)
            an = oracles.phi1s(k, 2.0, p)
            assert abs(fd - an) <= 1e-6 * max(abs(an), 1.0)

    def test_decay_envelope(self):
        # |Phi_1^s| <~ e^{-alpha Y}: verify the envelope rather than an
        # absolute floor (e^{-40 alpha} is only ~1e-2 at these wavenumbers)
        p = params_at()
        grid = np.linspace(0.0, 40.0, 400)
        vals = np.abs(oracles.phi1s(0, grid, p))
        sup_weighted = np.max(np.exp(p.alpha * grid) * vals)
        assert vals[-1] <= 1.05 * sup_weighted * math.exp(-p.alpha * 40.0)

    def test_quadrature_oracle(self):
        for p, ys, rel in ((params_at(), (0.0, 1.2), 5e-9),
                           (beta_params(), (0.0, 1.2, 4.0), 1e-9)):
            for Y in ys:
                a = complex(np.atleast_1d(oracles.phi1s(0, Y, p))[0])
                with quadrature_integrals():
                    b = complex(np.atleast_1d(oracles.phi1s(0, Y, p))[0])
                assert a == pytest.approx(b, rel=rel)

    def test_damped_combo_matches_sum(self):
        p = params_at()
        Y = np.linspace(0.1, 6.0, 25)
        combo = oracles.damped_corrector_combo(Y, p)
        direct = oracles.phi1s(1, Y, p) + p.alpha * oracles.phi1s(0, Y, p)
        assert np.max(np.abs(combo - direct)) < 1e-12 * np.max(np.abs(combo))

    def test_norm_scalings_across_sweep(self):
        # second and third derivative L2 norms absorb half powers of Im chat
        from tswave.numerics import graded_grid, l2_norm, trap_weights
        vals2, vals3 = [], []
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            p = p0.with_c(p0.chat_to_c((2.0 + np.exp(1j * math.pi / 4) / 2.0) * eps ** 0.125))
            g = graded_grid(1500, 40.0, cluster_scale=p.n ** (-1.0 / 3.0))
            w = trap_weights(g)
            im = p.c_hat.imag
            vals2.append(l2_norm(oracles.phi1s(2, g, p), w) / (1.0 + im ** -0.5))
            vals3.append(l2_norm(oracles.phi1s(3, g, p), w) / (1.0 + im ** -1.5))
        for seq in (vals2, vals3):
            for earlier, later in zip(seq, seq[1:]):
                assert later <= 1.3 * earlier + 0.1


class TestSlowMode:
    def test_boundary_values_closed_forms(self):
        p = params_at()
        phi0, dphi0 = (v[0] for v in slowmode.boundary_values(p))
        psi02_0 = oracles.psi0(2, 0, 0.0, p)
        dpsi02_0 = oracles.psi0(2, 1, 0.0, p)
        chat, a = p.c_hat, p.alpha
        assert phi0 == pytest.approx(-chat - a * psi02_0 * (1 - 2 * chat))
        assert dphi0 == pytest.approx(1 + a * chat + a * (1 - 2 * chat)
                                      * (a * psi02_0 - dpsi02_0))
        val = slowmode.phi_app_s(0, np.array([0.0]), (p,))[0, 0]
        assert val == pytest.approx(phi0, rel=1e-12)

    def test_boundary_values_quadrature_oracle_in_beta_regime(self):
        # criterion 2 compares the boundary values in the eighth regime only
        p = beta_params()
        closed = slowmode.boundary_values(p)
        with quadrature_integrals():
            quad = slowmode.boundary_values(p)
        for a, b in zip(closed, quad):
            assert a == pytest.approx(b, rel=1e-9)

    def test_small_wavenumber_limit(self):
        # the corrector is scaled by alpha: at tiny alpha the slow mode
        # collapses onto the shifted shear (relative to its own size, since
        # the frequency shift i/n is large when alpha is this small)
        p0 = SpectralParams.eighth(1e-12, 1e-8)
        p = p0.with_c(0.05 + 0.01j)
        Y = np.array([0.0, 0.7, 2.0])
        base = oracles.psi0(1, 0, Y, p)
        diff = slowmode.phi_app_s(0, Y, (p,))[0] - base
        assert np.max(np.abs(diff)) < 20.0 * p.alpha * 3.0 * np.max(np.abs(base))

    def test_rayleigh_on_exact_solution(self):
        p = params_at()
        from tswave.params import ModeFunction
        psi1 = ModeFunction(max_order=2,
                            evaluator=lambda o, Y: oracles.psi0(1, o, Y, p))
        Y = np.linspace(0.0, 5.0, 11)
        resid = rayleigh_apply(psi1, Y, p)
        w = oracles.psi0(1, 0, Y, p)
        assert np.allclose(resid, -p.alpha**2 * w * w, rtol=1e-12)

    def test_rayleigh_on_damped_pair(self):
        p = params_at()
        from tswave.params import ModeFunction
        from tswave.profile import DEFAULT_PROFILE

        def ev(o, Y):
            ea = np.exp(-p.alpha * np.asarray(Y))
            out = 0.0
            for m in range(o + 1):
                out = out + math.comb(o, m) * (-p.alpha) ** (o - m) * oracles.psi0(
                    1, m, Y, p)
            return ea * out

        psi_a1 = ModeFunction(max_order=2, evaluator=ev)
        Y = np.linspace(0.1, 4.0, 9)
        resid = rayleigh_apply(psi_a1, Y, p)
        w = oracles.psi0(1, 0, Y, p)
        du = DEFAULT_PROFILE.eval("U", 1, Y)
        expect = -2.0 * p.alpha * w * du * np.exp(-p.alpha * Y)
        assert np.max(np.abs(resid - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_rayleigh_residual_closed_form(self):
        p = params_at()
        mode = slowmode.phi_app_s_mode(p)
        Y = np.linspace(0.05, 8.0, 10)
        lhs = rayleigh_apply(mode, Y, p)
        rhs = residual_form(Y, p)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-8


def _same_bits(a, b):
    """Equal values with equal signs of zero, NaN matching NaN."""
    a, b = (np.ascontiguousarray(x).view(float) for x in (a, b))
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _beta_point():
    p0 = SpectralParams.beta_regime(1.0, 0.11, 1e-24)
    return p0.with_c(dispersion.center_beta(p0)), None


def _eighth_point(A, eps, t, y_max=None):
    p0 = SpectralParams.eighth(A, eps)
    disk = dispersion.disk_eighth(p0)
    chat = disk.center + 0.5 * disk.radius * np.exp(1j * t)
    return p0.with_c(p0.chat_to_c(chat)), y_max


class TestOnePass:
    @pytest.mark.parametrize("point", [
        (_eighth_point, (2.0, 1e-12, 2.0)), (_eighth_point, (3.0, 1e-15, 0.5)),
        (_eighth_point, (4.0, 1e-24, 1.0)), (_beta_point, ()),
        (_eighth_point, (2.0, 1e-12, 2.0, 800.0))],
        ids=["A2", "A3", "A4", "beta", "A2-past-745"])
    def test_one_pass_equals_order_by_order_formulas(self, point):
        # every array of the slow-mode pass, the closed-form pass and the
        # per-grid profile arrays against the formulas evaluated one
        # quantity and one order at a time, bit for bit; the beta grid and
        # the last one reach past Y = 745, where e^{-Y} underflows
        make, args = point
        p, y_max = make(*args)
        grid = osresolvent.build_bvp(p, n_nodes=400, y_max=y_max).grid
        prof = profile_arrays(grid)
        fields = [("U", k) for k in range(3)] + [("H", k) for k in range(3)]
        for arr, (which, k) in zip(prof, fields):
            assert _same_bits(arr, oracles.profile_field(which, k, grid))
            assert _same_bits(arr, DEFAULT_PROFILE.eval(which, k, grid))
        if grid[-1] > 745.0:
            assert prof.d2us[-1] == 0.0 and np.signbit(prof.d2us[-1])
        for arr, ref in zip(slowmode._closed_forms_at(grid, (p.c_hat,)),
                            oracles.closed_forms(grid, p.c_hat)):
            assert _same_bits(arr[0], ref)
        mode = slowmode.phi_app_s_mode(p)
        slow = slowmode._slow_pass(grid, prof, (p,))
        psi1 = oracles.psi0(1, 0, grid, p)
        assert _same_bits(slow.psi1[0], psi1)
        for k in range(4):
            ref = oracles.phi_app_s(k, grid, p)
            assert _same_bits(slowmode.phi_app_s(k, grid, (p,))[0], ref)
            assert _same_bits(mode.eval(k, grid), ref)
        combo = oracles.damped_corrector_combo(grid, p)
        assert _same_bits(slow.combo[0], combo)
        assert _same_bits(slowmode.rayleigh_residual_form(slow, p.alpha)[0],
                          -2.0 * p.alpha**2 * psi1 * combo)


class TestSlowPass:
    def test_each_read_makes_one_pass(self, monkeypatch):
        # the slow mode keeps no pass between calls: a pass evaluates J, K
        # and L once, and each read of phi_app_s, so each order of the
        # ModeFunction view, makes a pass of its own with the same bits
        p = params_at()
        Y = 40.0 * np.linspace(0.0, 1.0, 400) ** 3
        calls = closed_form_calls(monkeypatch)
        slow = slowmode._slow_pass(Y, profile_arrays(Y), (p,))
        assert calls == [Y.size]
        mode = slowmode.phi_app_s_mode(p)
        for k in range(4):
            assert np.array_equal(mode.eval(k, Y), slow.phi_app[k][0])
            assert np.array_equal(slowmode.phi_app_s(k, Y, (p,)), slow.phi_app[k])
        assert calls == [Y.size] * 9

    def test_quadrature_oracle_replaces_closed_forms(self, monkeypatch):
        # every read of J, K and L goes through the supply the oracle
        # replaces, so no oracle comparison meets the closed forms
        p = params_at()
        Y = np.array([0.3, 2.0])
        closed = slowmode.phi_app_s(0, Y, (p,))
        calls = closed_form_calls(monkeypatch)
        with quadrature_integrals():
            quad = slowmode.phi_app_s(0, Y, (p,))
            slowmode.phi_app_s(3, Y, (p,))
            residual_form(Y, p)
        assert calls == []
        assert not np.array_equal(quad, closed)
        assert np.allclose(quad, closed, rtol=1e-9)


@pytest.fixture(scope="module")
def setup():
    from tswave import magnetic
    from tswave.numerics import graded_grid
    p = params_at()
    grid = graded_grid(900, 40.0, cluster_scale=p.n ** (-1.0 / 3.0))
    slow = [slowmode.phi_app_s(k, grid, (p,)) for k in range(2)]
    phi0, _ = slowmode.boundary_values(p)
    _, psi_f = oracles.fast_mode_pair(p)
    psi_s = magnetic.build_psi_app_s((p,), slow, [psi_f.eval(0, 0.0)], phi0, grid,
                                     profile_arrays(grid))
    # the magnetic slow mode at any Y, from its grid arrays
    return p, grid, mode_from_grid(grid, [v[0] for v in psi_s])


def slow_errors(group, Y, p, psi_s):
    """The slow error group at Y, with the magnetic slow mode ``psi_s`` at
    Y by order and the slow-mode pass of Y."""
    psi = [psi_s.eval(k, Y) for k in range(2)]
    prof = profile_arrays(Y)
    return slowmode.slow_errors(prof, (p,), psi,
                                slowmode._slow_pass(Y, prof, (p,)))[group - 1][0]


class TestSlowErrors:

    def test_group3_leading_term_scales_with_alpha_sq(self, setup):
        p, grid, psi_s = setup
        Y = np.linspace(0.2, 3.0, 7)
        e3 = slow_errors(3, Y, p, psi_s)
        ray = residual_form(Y, p)
        # the non-magnetic part is exactly the Rayleigh residual, O(alpha^2)
        assert np.max(np.abs(ray)) <= 4.0 * p.alpha**2 * np.max(
            np.abs(oracles.damped_corrector_combo(Y, p)))
        assert np.max(np.abs(e3 - ray)) <= p.sqrt_eps * 10.0

    def test_groups_combine_to_operator_residual(self, setup):
        # dY E1 + i alpha E2 + E3 equals the full first equation applied to
        # the slow pair (checked with dY E1 by central differences)
        from tswave.profile import DEFAULT_PROFILE
        p, grid, psi_s = setup
        Y = np.linspace(0.3, 5.0, 9)
        h = 1e-5
        de1 = (slow_errors(1, Y + h, p, psi_s) - slow_errors(1, Y - h, p, psi_s)) / (2 * h)
        e2 = slow_errors(2, Y, p, psi_s)
        e3 = slow_errors(3, Y, p, psi_s)
        total = de1 + 1j * p.alpha * e2 + e3

        prof = DEFAULT_PROFILE
        a, n, se, c, chat = p.alpha, p.n, p.sqrt_eps, p.c, p.c_hat
        us = prof.eval("U", 0, Y)
        hs = prof.eval("H", 0, Y)

        def phi(k):
            return slowmode.phi_app_s(k, Y, (p,))[0]

        def dphi4(Y):
            hh = 1e-4
            return (slowmode.phi_app_s(3, Y + hh, (p,))[0]
                    - slowmode.phi_app_s(3, Y - hh, (p,))[0]) / (2 * hh)

        full = ((1j / n) * (dphi4(Y) - 2 * a**2 * phi(2) + a**4 * phi(0))
                + (us - chat) * (phi(2) - a**2 * phi(0))
                - prof.eval("U", 2, Y) * phi(0)
                - se * hs * (psi_s.eval(2, Y) - a**2 * psi_s.eval(0, Y))
                + se * prof.eval("H", 2, Y) * psi_s.eval(0, Y)
                - (a / n) * (prof.eval("U", 1, Y) * psi_s.eval(0, Y)
                             + (us - c) * psi_s.eval(1, Y)
                             - prof.eval("H", 1, Y) * phi(0) - hs * phi(1))
                - (1j * a**2 / n) * phi(0))
        assert np.max(np.abs(total - full)) <= 1e-5 * (1.0 + np.max(np.abs(full)))
