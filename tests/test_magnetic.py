import math
import typing

import numpy as np
import pytest

from tswave import slowmode
from tswave.errors import NonContraction, NonConvergence
from tswave.magnetic import (MagneticProblem, default_magnetic_grid,
                             equation_residual, solve_magnetic, build_psi_app_s)
from tswave.numerics import graded_grid
from tswave.params import ModeFunction, SpectralParams


def params_with_alpha(alpha, c=0.1 + 0.05j):
    # alpha = amplitude * eps^{1/8}; keep eps fixed so n stays moderate
    return SpectralParams(eps=alpha ** 8, amplitude=1.0).with_c(c)


def exp_source(rate=0.5):
    return ModeFunction(max_order=0,
                        evaluator=lambda o, Y: np.exp(-rate * Y) * (1.0 + 0.0j),
                        decay_rate=rate)


def test_problem_type_hints_resolve():
    hints = typing.get_type_hints(MagneticProblem)
    assert hints["params"] is SpectralParams
    assert hints["f"] is ModeFunction


class TestSolve:
    def test_zero_data_gives_zero(self):
        p = params_with_alpha(0.1)
        zero = ModeFunction(max_order=0,
                            evaluator=lambda o, Y: np.zeros_like(Y, dtype=complex),
                            decay_rate=1.0)
        mode, trace = solve_magnetic(MagneticProblem(params=p, phi_b=0.0, f=zero),
                                     tol=1e-12)
        Y = np.linspace(0.0, 20.0, 50)
        assert np.max(np.abs(mode.eval(0, Y))) == 0.0
        assert trace.converged

    def test_lift_solution_residual(self):
        p = params_with_alpha(0.1)
        prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
        mode, trace = solve_magnetic(prob, tol=1e-11)
        assert trace.converged
        # a-posteriori defect of the returned iterate under the Picard map
        assert trace.residual_weighted < 10.0 * 1e-11
        assert mode.eval(0, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_differential_residual_refines(self):
        p = params_with_alpha(0.2)
        prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
        errs = []
        for n_nodes in (900, 1800):
            grid = default_magnetic_grid(p, n_nodes=n_nodes)
            mode, _ = solve_magnetic(prob, tol=1e-12, grid=grid)
            Y = np.linspace(0.5, 15.0, 40)
            errs.append(np.max(np.abs(equation_residual(mode, prob, Y, step=1e-4))))
        assert errs[1] < errs[0] / 2.5

    def test_contraction_rate_tracks_alpha(self):
        band = []
        for alpha in (0.05, 0.1, 0.2):
            p = params_with_alpha(alpha)
            prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
            _, trace = solve_magnetic(prob, tol=1e-11)
            band.append(trace.ratios[1] / alpha)
        assert max(band) / min(band) <= 3.0

    def test_xi_branch_window(self):
        for alpha in (0.05, 0.2):
            prob = MagneticProblem(params=params_with_alpha(alpha),
                                   phi_b=0.0, f=exp_source())
            lo = math.sqrt(2.0 * alpha) / 3.0
            assert lo < prob.xi.real < 2.0 * lo

    def test_eta_validation(self):
        p = params_with_alpha(0.1)
        with pytest.raises(ValueError):
            MagneticProblem(params=p, phi_b=0.0, f=exp_source(),
                            eta=math.sqrt(0.2) / 2.0)

    def test_nonconvergence_budget(self):
        p = params_with_alpha(0.2)
        prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
        with pytest.raises(NonConvergence):
            solve_magnetic(prob, tol=1e-14, max_picard=2)

    def test_noncontraction_detector(self):
        # a wake decaying too slowly (and too large) breaks the contraction;
        # the runtime detector is the admissibility check
        class BadWake:
            u_inf = 1.0
            h_inf = 1.0

            def eval(self, which, order, Y):
                return 1.0 - self.wake(Y)

            def wake(self, Y):
                return 6.0 / (1.0 + np.asarray(Y, dtype=float))

        p = SpectralParams(eps=0.5, amplitude=0.95 / 0.5 ** 0.125).with_c(0.05 + 0.01j)
        prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
        with pytest.raises(NonContraction):
            solve_magnetic(prob, tol=1e-11, profile=BadWake())


class TestMeasuredScalings:
    def test_weighted_sup_estimates(self):
        # phi ~ |phi_b| + ||f||/alpha and dY phi ~ sqrt(alpha)|phi_b| +
        # ||f||/sqrt(alpha), measured across the alpha sweep
        consts = []
        for alpha in (0.05, 0.1, 0.2):
            p = params_with_alpha(alpha)
            prob = MagneticProblem(params=p, phi_b=1.0 + 0.0j, f=exp_source())
            mode, _ = solve_magnetic(prob, tol=1e-11)
            grid = default_magnetic_grid(p)
            w = np.exp(prob.eta * grid)
            sup0 = np.max(w * np.abs(mode.eval(0, grid)))
            sup1 = np.max(w * np.abs(mode.eval(1, grid)))
            denom0 = 1.0 + 1.0 / alpha
            denom1 = math.sqrt(alpha) + 1.0 / math.sqrt(alpha)
            consts.append((sup0 / denom0, sup1 / denom1))
        for i in (0, 1):
            vals = [c[i] for c in consts]
            assert max(vals) <= 5.0
            assert max(vals) / min(vals) <= 4.0

    def test_l2_estimate_homogeneous_data(self):
        from tswave.numerics import l2_norm, trap_weights
        consts = []
        for alpha in (0.05, 0.1, 0.2):
            p = params_with_alpha(alpha)
            prob = MagneticProblem(params=p, phi_b=0.0, f=exp_source())
            grid = default_magnetic_grid(p, n_nodes=1500)
            mode, _ = solve_magnetic(prob, tol=1e-11, grid=grid)
            wts = trap_weights(grid)
            lhs = math.hypot(l2_norm(mode.eval(1, grid), wts),
                             alpha * l2_norm(mode.eval(0, grid), wts))
            f_l2 = l2_norm(exp_source().eval(0, grid), wts)
            consts.append(lhs * math.sqrt(alpha) / f_l2)
        assert max(consts) <= 5.0


@pytest.fixture(scope="module")
def solution():
    p0 = SpectralParams.eighth(2.0, 1e-10)
    chat = (2.0 + np.exp(1j * math.pi / 4.0) / 2.0) * 1e-10 ** 0.125
    p = p0.with_c(p0.chat_to_c(chat))
    from tswave import fastmode
    slow = slowmode.phi_app_s_mode(p)
    phi0, _ = slowmode.boundary_values(p)
    _, psi_f = fastmode.fast_mode_pair(p)
    grid = graded_grid(1400, max(40.0, 8.0 / p.alpha),
                       cluster_scale=p.n ** (-1.0 / 3.0))
    psi_s = build_psi_app_s(p, slow, psi_f.eval(0, 0.0), phi0, grid=grid)
    return p, grid, slow, phi0, psi_f, psi_s


class TestPsiAppS:

    def test_boundary_value(self, solution):
        p, grid, slow, phi0, psi_f, psi_s = solution
        assert psi_s.eval(0, 0.0) == pytest.approx(phi0 * psi_f.eval(0, 0.0),
                                                   rel=1e-10)

    def test_equation_defect(self, solution):
        p, grid, slow, phi0, psi_f, psi_s = solution
        # residual of the magnetic equation using the mode's own channels
        from tswave.profile import DEFAULT_PROFILE
        Y = grid[1:-1:50]
        us = DEFAULT_PROFILE.eval("U", 0, Y)
        hs = DEFAULT_PROFILE.eval("H", 0, Y)
        f = 1j * p.alpha * hs * slow.eval(0, Y) + slow.eval(1, Y)
        resid = (-(psi_s.eval(2, Y) - p.alpha**2 * psi_s.eval(0, Y))
                 + 1j * p.alpha * (us - p.c) * psi_s.eval(0, Y) - f)
        assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(f)))

    def test_norm_scalings_across_sweep(self):
        from tswave import fastmode
        from tswave.numerics import sup_exp_norm
        sup_by_eps = {}
        sup2_by_eps = {}
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            chat = (2.0 + np.exp(1j * math.pi / 4.0) / 2.0) * eps ** 0.125
            p = p0.with_c(p0.chat_to_c(chat))
            slow = slowmode.phi_app_s_mode(p)
            phi0, _ = slowmode.boundary_values(p)
            _, psi_f = fastmode.fast_mode_pair(p)
            grid = graded_grid(1200, max(40.0, 8.0 / p.alpha),
                               cluster_scale=p.n ** (-1.0 / 3.0))
            psi_s = build_psi_app_s(p, slow, psi_f.eval(0, 0.0), phi0, grid=grid)
            sup_by_eps[eps] = sup_exp_norm(psi_s.eval(0, grid), grid, p.alpha) * p.alpha
            sup2_by_eps[eps] = sup_exp_norm(psi_s.eval(2, grid), grid, p.alpha)
        # ||Psi_app^s||_{Linf_alpha} <= C / alpha and the second derivative
        # stays order one, uniformly over the sweep
        assert max(sup_by_eps.values()) <= 5.0
        assert max(sup2_by_eps.values()) <= 5.0
