import math
import typing
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (default_magnetic_grid, equation_residual, fast_mode_pair,
                     mode_from_grid, sup_exp_norm)
from tswave import magnetic, slowmode
from tswave.errors import NonContraction, NonConvergence
from tswave.magnetic import MagneticProblem, solve_magnetic, build_psi_app_s
from tswave.numerics import graded_grid
from tswave.params import SpectralParams
from tswave.profile import profile_arrays


def params_with_alpha(alpha, c=0.1 + 0.05j):
    # alpha = amplitude * eps^{1/8}; keep eps fixed so n stays moderate
    return SpectralParams(eps=alpha ** 8, amplitude=1.0).with_c(c)


def exp_source(Y, rate=0.5):
    return np.exp(-rate * Y) * (1.0 + 0.0j)


def exp_problem(p, phi_b, grid, rate=0.5, **kwargs):
    """The problem of the one point ``p`` with the source e^{-rate Y} sampled
    on ``grid``."""
    return MagneticProblem(params=(p,), phi_b=(phi_b,), f=exp_source(grid, rate)[None],
                           decay_rate=rate, **kwargs)


def solve_point(prob, grid, **kwargs):
    """``solve_magnetic`` of a problem of one point: row 0 of each array and
    the point's trace."""
    mode, (trace,) = solve_magnetic(prob, grid, profile_arrays(grid), **kwargs)
    return tuple(v[0] for v in mode), trace


def test_problem_type_hints_resolve():
    hints = typing.get_type_hints(MagneticProblem)
    assert hints["params"] == tuple[SpectralParams, ...]
    assert hints["f"] is np.ndarray


class TestSolve:
    def test_zero_data_gives_zero(self):
        p = params_with_alpha(0.1)
        grid = default_magnetic_grid(p)
        prob = MagneticProblem(params=(p,), phi_b=(0.0,),
                               f=np.zeros((1, grid.size), dtype=complex), decay_rate=1.0)
        mode, trace = solve_point(prob, grid, tol=1e-12)
        assert max(np.max(np.abs(v)) for v in mode) == 0.0
        assert trace.converged

    def test_lift_solution_residual(self):
        p = params_with_alpha(0.1)
        grid = default_magnetic_grid(p)
        mode, trace = solve_point(exp_problem(p, 1.0 + 0.0j, grid), grid, tol=1e-11)
        assert trace.converged
        # a-posteriori defect of the returned iterate under the Picard map
        assert trace.residual_weighted < 10.0 * 1e-11
        assert grid[0] == 0.0
        assert mode[0][0] == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_differential_residual_refines(self):
        p = params_with_alpha(0.2)
        errs = []
        for n_nodes in (900, 1800):
            grid = default_magnetic_grid(p, n_nodes=n_nodes)
            mode, _ = solve_point(exp_problem(p, 1.0 + 0.0j, grid), grid, tol=1e-12)
            Y = np.linspace(0.5, 15.0, 40)
            errs.append(np.max(np.abs(equation_residual(
                mode_from_grid(grid, mode), p, exp_source, Y, step=1e-4))))
        assert errs[1] < errs[0] / 2.5

    def test_contraction_rate_tracks_alpha(self):
        band = []
        for alpha in (0.05, 0.1, 0.2):
            p = params_with_alpha(alpha)
            grid = default_magnetic_grid(p)
            _, trace = solve_point(exp_problem(p, 1.0 + 0.0j, grid), grid, tol=1e-11)
            band.append(trace.ratios[1] / alpha)
        assert max(band) / min(band) <= 3.0

    def test_xi_branch_window(self):
        for alpha in (0.05, 0.2):
            p = params_with_alpha(alpha)
            prob = exp_problem(p, 0.0, default_magnetic_grid(p))
            lo = math.sqrt(2.0 * alpha) / 3.0
            assert lo < prob.xi[0].real < 2.0 * lo

    def test_eta_validation(self):
        p = params_with_alpha(0.1)
        with pytest.raises(ValueError):
            exp_problem(p, 0.0, default_magnetic_grid(p), eta=math.sqrt(0.2) / 2.0)

    def test_source_must_be_sampled_on_the_grid(self):
        # an array source is not broadcast: a scalar or a sample on another
        # grid is refused, with both shapes named
        p = params_with_alpha(0.1)
        grid = default_magnetic_grid(p)
        sources = ((np.complex128(1.0), r"\(\)"), (exp_source(grid[:-1])[None], r"\(1, 1199\)"))
        for f, shape in sources:
            prob = MagneticProblem(params=(p,), phi_b=(1.0,), f=f, decay_rate=0.5)
            with pytest.raises(ValueError, match=shape + r".*\(1200,\)"):
                solve_magnetic(prob, grid, profile_arrays(grid))

    def test_nonconvergence_budget(self):
        p = params_with_alpha(0.2)
        grid = default_magnetic_grid(p)
        with pytest.raises(NonConvergence):
            solve_magnetic(exp_problem(p, 1.0 + 0.0j, grid), grid, profile_arrays(grid),
                           tol=1e-14, max_picard=2)

    def test_noncontraction_detector(self):
        # a wake decaying too slowly (and too large) breaks the contraction;
        # the runtime detector is the admissibility check
        p = SpectralParams(eps=0.5, amplitude=0.95 / 0.5 ** 0.125).with_c(0.05 + 0.01j)
        grid = default_magnetic_grid(p)
        prob = exp_problem(p, 1.0 + 0.0j, grid)
        wake = 6.0 / (1.0 + grid)
        with pytest.raises(NonContraction):
            solve_magnetic(prob, grid, SimpleNamespace(us=1.0 - wake, wake=wake), tol=1e-11)


class TestBlockSolve:
    """Problems at several wave speeds solved as one block."""

    # (c, source rate, boundary value): the second and fourth points take
    # one Picard step more than the others
    POINTS = [(0.1 + 0.05j, 0.5, 1.0), (0.3 + 0.01j, 0.6, 0.5 - 0.2j),
              (0.05 + 0.2j, 0.7, 0.0), (0.4 + 0.3j, 0.3, 2.0)]

    def problems(self):
        base = params_with_alpha(0.1)
        grid = default_magnetic_grid(base)
        points = [(base.with_c(c), exp_source(grid, r), pb) for c, r, pb in self.POINTS]
        block = MagneticProblem(params=tuple(p for p, _, _ in points),
                                phi_b=tuple(pb for _, _, pb in points),
                                f=np.stack([f for _, f, _ in points]), decay_rate=0.3)
        singles = [MagneticProblem(params=(p,), phi_b=(pb,), f=f[None], decay_rate=0.3)
                   for p, f, pb in points]
        return grid, block, singles

    def test_rows_and_traces_are_the_single_solves(self):
        grid, block, singles = self.problems()
        mode, traces = solve_magnetic(block, grid, profile_arrays(grid), tol=1e-11)
        assert isinstance(traces, magnetic.MagneticTraces)
        for j, prob in enumerate(singles):
            ref, trace = solve_point(prob, grid, tol=1e-11)
            assert all(a[j].tobytes() == b.tobytes() for a, b in zip(mode, ref))
            assert traces[j] == trace
        assert [len(t.gaps) for t in traces] == [9, 10, 9, 10]
        assert traces.gaps == [g for t in traces for g in t.gaps]
        assert traces.ratios == [r for t in traces for r in t.ratios]

    def test_non_finite_point_fails_the_block(self):
        # the stacked exp-kernel solve passes 0 * NaN from one point's row to
        # its neighbours', so a block with a non-finite source returns no row:
        # that row never meets tol and the block raises, while the other
        # points solve on their own (Gamma then takes the block point by point)
        grid, block, singles = self.problems()
        block.f[1, grid.size // 2] = math.nan
        with pytest.raises(NonConvergence, match="gap nan"):
            solve_magnetic(block, grid, profile_arrays(grid), tol=1e-11, max_picard=12)
        for j in (0, 2, 3):
            solve_magnetic(singles[j], grid, profile_arrays(grid), tol=1e-11, max_picard=12)

    def test_source_must_have_a_row_per_point(self):
        grid, block, _ = self.problems()
        block.f = block.f[:3]
        with pytest.raises(ValueError, match="shape"):
            solve_magnetic(block, grid, profile_arrays(grid))


class TestMeasuredScalings:
    def test_weighted_sup_estimates(self):
        # phi ~ |phi_b| + ||f||/alpha and dY phi ~ sqrt(alpha)|phi_b| +
        # ||f||/sqrt(alpha), measured across the alpha sweep
        consts = []
        for alpha in (0.05, 0.1, 0.2):
            p = params_with_alpha(alpha)
            grid = default_magnetic_grid(p)
            prob = exp_problem(p, 1.0 + 0.0j, grid)
            mode, _ = solve_point(prob, grid, tol=1e-11)
            w = np.exp(prob.eta * grid)
            sup0 = np.max(w * np.abs(mode[0]))
            sup1 = np.max(w * np.abs(mode[1]))
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
            grid = default_magnetic_grid(p, n_nodes=1500)
            mode, _ = solve_point(exp_problem(p, 0.0, grid), grid, tol=1e-11)
            wts = trap_weights(grid)
            lhs = math.hypot(l2_norm(mode[1], wts), alpha * l2_norm(mode[0], wts))
            f_l2 = l2_norm(exp_source(grid), wts)
            consts.append(lhs * math.sqrt(alpha) / f_l2)
        assert max(consts) <= 5.0


@pytest.fixture(scope="module")
def solution():
    p0 = SpectralParams.eighth(2.0, 1e-10)
    chat = (2.0 + np.exp(1j * math.pi / 4.0) / 2.0) * 1e-10 ** 0.125
    p = p0.with_c(p0.chat_to_c(chat))
    slow = slowmode.phi_app_s_mode(p)
    phi0, _ = slowmode.boundary_values(p)
    _, psi_f = fast_mode_pair(p)
    grid = graded_grid(1400, p.far_field,
                       cluster_scale=p.n ** (-1.0 / 3.0))
    psi_s = build_psi_app_s((p,), [slow.eval(k, grid)[None] for k in range(2)],
                            [psi_f.eval(0, 0.0)], phi0, grid, profile_arrays(grid))
    return p, grid, slow, phi0[0], psi_f, [v[0] for v in psi_s]


class TestPsiAppS:

    def test_boundary_value(self, solution):
        p, grid, slow, phi0, psi_f, psi_s = solution
        assert grid[0] == 0.0
        assert psi_s[0][0] == pytest.approx(phi0 * psi_f.eval(0, 0.0), rel=1e-10)

    def test_equation_defect(self, solution):
        p, grid, slow, phi0, psi_f, psi_s = solution
        # residual of the magnetic equation using the mode's own channels
        from tswave.profile import DEFAULT_PROFILE
        nodes = slice(1, -1, 50)
        Y = grid[nodes]
        us = DEFAULT_PROFILE.eval("U", 0, Y)
        hs = DEFAULT_PROFILE.eval("H", 0, Y)
        f = 1j * p.alpha * hs * slow.eval(0, Y) + slow.eval(1, Y)
        psi, d2psi = psi_s[0][nodes], psi_s[2][nodes]
        resid = (-(d2psi - p.alpha**2 * psi)
                 + 1j * p.alpha * (us - p.c) * psi - f)
        assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(f)))

    def test_norm_scalings_across_sweep(self):
        sup_by_eps = {}
        sup2_by_eps = {}
        for eps in (1e-8, 1e-10, 1e-12):
            p0 = SpectralParams.eighth(2.0, eps)
            chat = (2.0 + np.exp(1j * math.pi / 4.0) / 2.0) * eps ** 0.125
            p = p0.with_c(p0.chat_to_c(chat))
            phi0, _ = slowmode.boundary_values(p)
            _, psi_f = fast_mode_pair(p)
            grid = graded_grid(1200, p.far_field,
                               cluster_scale=p.n ** (-1.0 / 3.0))
            slow = [slowmode.phi_app_s(k, grid, (p,)) for k in range(2)]
            psi_s = [v[0] for v in build_psi_app_s((p,), slow, [psi_f.eval(0, 0.0)],
                                                   phi0, grid, profile_arrays(grid))]
            sup_by_eps[eps] = sup_exp_norm(psi_s[0], grid, p.alpha) * p.alpha
            sup2_by_eps[eps] = sup_exp_norm(psi_s[2], grid, p.alpha)
        # ||Psi_app^s||_{Linf_alpha} <= C / alpha and the second derivative
        # stays order one, uniformly over the sweep
        assert max(sup_by_eps.values()) <= 5.0
        assert max(sup2_by_eps.values()) <= 5.0
