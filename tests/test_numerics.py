import gc
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tswave
from tswave import dispersion, numerics, osresolvent
from tswave.errors import (DerivativeBreakdown, NonConvergence, NonResolvable,
                           ZeroOnContour)
from oracles import (Ray, Segment, mode_from_grid, newton_loop, quad_segment,
                     stencil_matrix)
from tswave.numerics import (
    Circle, RootTrace, backward_exp_integral, cumulative_trapezoid,
    diff_matrix, forward_exp_integral, graded_grid, hermite, l2_norm,
    newton_root, tail_trapezoid, trap_weights, winding_samples,
)
from tswave.params import SpectralParams


def _diff_matrix_loop(grid, order):
    """Node-by-node construction of ``diff_matrix``: the oracle for the
    vectorised one, which must reproduce its arrays exactly."""
    from scipy import sparse

    n = grid.size
    rows, cols, data = [], [], []
    hm = np.diff(grid)

    def put(i, j, v):
        rows.append(i)
        cols.append(j)
        data.append(v)

    for i in range(1, n - 1):
        a, b = hm[i - 1], hm[i]
        if order == 1:
            put(i, i - 1, -b / (a * (a + b)))
            put(i, i, (b - a) / (a * b))
            put(i, i + 1, a / (b * (a + b)))
        else:
            put(i, i - 1, 2.0 / (a * (a + b)))
            put(i, i, -2.0 / (a * b))
            put(i, i + 1, 2.0 / (b * (a + b)))
    if order == 1:
        a, b = hm[0], hm[1]
        put(0, 0, -(2 * a + b) / (a * (a + b)))
        put(0, 1, (a + b) / (a * b))
        put(0, 2, -a / (b * (a + b)))
        a, b = hm[-1], hm[-2]
        put(n - 1, n - 1, (2 * a + b) / (a * (a + b)))
        put(n - 1, n - 2, -(a + b) / (a * b))
        put(n - 1, n - 3, a / (b * (a + b)))
    else:
        a, b = hm[0], hm[1]
        put(0, 0, 2.0 / (a * (a + b)))
        put(0, 1, -2.0 / (a * b))
        put(0, 2, 2.0 / (b * (a + b)))
        a, b = hm[-1], hm[-2]
        put(n - 1, n - 1, 2.0 / (a * (a + b)))
        put(n - 1, n - 2, -2.0 / (a * b))
        put(n - 1, n - 3, 2.0 / (b * (a + b)))
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


class TestQuadSegment:
    def test_constant(self):
        assert quad_segment(lambda t: np.ones_like(t), Segment(0.0, 1.0)) == pytest.approx(1.0)

    def test_exponential_ray(self):
        val = quad_segment(lambda t: np.exp(-t), Ray(0.0, 1.0))
        assert val == pytest.approx(1.0, rel=1e-11)

    def test_near_singular_vs_composite_oracle(self):
        # the integrand of the critical layer: 1/(U_s - c_hat) on [0, 1]
        chat = 0.1 + 0.01j

        def f(t):
            return 1.0 / (1.0 - np.exp(-t) - chat)

        val = quad_segment(f, Segment(0.0, 1.0), rel_tol=1e-11)
        # fixed fine composite midpoint oracle at 10x the resolution the
        # adaptive rule needed (~1e5 panels is far beyond that)
        t = (np.arange(100000) + 0.5) / 100000
        oracle = np.sum(f(t)) / 100000
        assert abs(val - oracle) <= 5e-9 * abs(oracle)
        # magnitude bound: |result| <= C (1 + |log Im chat|)
        assert abs(val) <= 4.0 * (1.0 + abs(math.log(chat.imag)))

    def test_rel_tol_validation(self):
        with pytest.raises(ValueError):
            quad_segment(lambda t: t, Segment(0.0, 1.0), rel_tol=1e-2)
        with pytest.raises(ValueError):
            quad_segment(lambda t: t, Segment(0.0, 1.0), rel_tol=1e-15)

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergence):
            # genuine endpoint singularity on the path
            quad_segment(lambda t: 1.0 / t, Segment(0.0, 1.0), rel_tol=1e-10,
                         max_intervals=64)

    @given(st.floats(0.05, 0.95), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_additive_under_splitting(self, frac, k):
        def f(t):
            return np.exp(1j * k * t) * (1.0 + t**2)

        whole = quad_segment(f, Segment(0.0, 2.0), rel_tol=1e-10)
        left = quad_segment(f, Segment(0.0, 2.0 * frac), rel_tol=1e-10)
        right = quad_segment(f, Segment(2.0 * frac, 2.0), rel_tol=1e-10)
        assert abs(left + right - whole) <= 2e-9 * abs(whole)


class TestWinding:
    def test_simple_zero(self):
        assert winding_samples(lambda c: c - (0.3 + 0.2j),
                               Circle(0.3 + 0.2j, 1.0))[0] == 1

    def test_constant(self):
        assert winding_samples(lambda c: 5.0 * np.ones_like(c),
                               Circle(0.0, 2.0))[0] == 0

    def test_double_zero(self):
        a = 0.1 - 0.4j
        assert winding_samples(lambda c: (c - a) ** 2, Circle(0.0, 1.0))[0] == 2

    @pytest.mark.parametrize("samples", [16, 32, 64, 128])
    def test_refinement_invariance(self, samples):
        a = 0.1 - 0.4j
        assert winding_samples(lambda c: (c - a) ** 2, Circle(0.0, 1.0),
                               init_samples=samples)[0] == 2
        assert winding_samples(lambda c: c - a, Circle(a, 0.5),
                               init_samples=samples)[0] == 1

    def test_zero_on_contour(self):
        with pytest.raises(ZeroOnContour):
            winding_samples(lambda c: c - 1.0, Circle(0.0, 1.0), init_samples=16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_is_refused(self, bad):
        # a NaN or infinite sample carries no argument: it is refused by its
        # theta and value, not counted and not taken for a zero on the contour
        def g(c):
            vals = np.array(c, dtype=complex)
            vals[3] = bad
            return vals

        with pytest.raises(NonResolvable,
                           match=rf"g = \({bad}\+0j\) at theta = 1\.374447 is not finite"):
            winding_samples(g, Circle(0.0, 1.0), init_samples=16)

    def test_min_samples(self):
        with pytest.raises(ValueError):
            winding_samples(lambda c: c, Circle(0.0, 1.0), init_samples=8)

    def test_one_value_for_several_points_raises(self):
        with pytest.raises(ValueError, match=r"shape \(\) for points of shape \(17,\)"):
            winding_samples(lambda c: complex(np.sum(c)), Circle(0.0, 1.0),
                            init_samples=16)


class TestNewton:
    def test_affine_one_step(self):
        root, trace = newton_root(lambda c: c - (1.0 + 1.0j), 0.0)
        assert root == pytest.approx(1.0 + 1.0j)
        assert trace.converged and trace.final_residual <= 1e-12

    def test_sqrt2(self):
        root, trace = newton_root(lambda c: c * c - 2.0, 1.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert trace.residuals[-1] <= 1e-12

    def test_trace_residual_contract(self):
        root, trace = newton_root(lambda c: (c - 0.5j) * (c + 2.0), 0.2 + 0.3j,
                                  tol=1e-13)
        assert trace.converged
        assert abs((root - 0.5j) * (root + 2.0)) <= 1e-13

    def test_difference_points_go_as_one_array(self):
        # each point goes with its two difference points as one array, so
        # an undamped run makes one call per iterate and no other
        shapes = []

        def g(c):
            shapes.append(np.shape(c))
            return c * c - 2.0

        root, trace = newton_root(g, 1.0)
        assert trace.converged
        assert shapes == [(3,)] * len(trace.iterates)

    def test_damped_candidates_go_with_their_difference_points(self):
        # the first full step overshoots to 1e3: each halving is one more
        # 3-point call, and the accepted one carries the next derivative
        calls = []

        def g(c):
            calls.append(np.array(c))
            return np.arctan(c)

        root, trace = newton_root(g, 1.5)
        assert trace.converged and abs(root) <= 1e-12
        assert all(z.shape == (3,) for z in calls)
        assert len(calls) > len(trace.iterates)
        ref_calls = []

        def g_ref(c):
            ref_calls.append(np.array(c))
            return np.arctan(c)

        ref = newton_loop(g_ref, 1.5)
        assert [z[0] for z in calls] == [z.item() for z in ref_calls if z.size == 1]
        assert (root, trace.iterates, trace.residuals) == ref[:3]

    @pytest.mark.parametrize("power, c0, limit", [(2, 0.4, 1.2)])
    def test_raising_difference_point_keeps_the_reference_outcome(self, power, c0, limit):
        # g refuses points with Re c > limit, as Gamma0 refuses Im c_hat <= 0:
        # on c^2 - 1 the first candidate from 0.4, 1.45, is refused itself
        def g(c):
            c = np.asarray(c, dtype=complex)
            if np.any(c.real > limit):
                raise ValueError(f"Re c above {limit}")
            return c**power - 1.0

        def outcome(run):
            try:
                return run()
            except ValueError as exc:
                return str(exc)

        got = outcome(lambda: newton_root(g, c0, tol=1e-10))
        want = outcome(lambda: newton_loop(g, c0, tol=1e-10))
        assert got == want == "Re c above 1.2"

    def test_region_stops_the_walk(self):
        # the first step from 1, damped twice, lands near 13.375, outside
        # the region: the iteration ends there, unconverged
        root, trace = newton_root(lambda c: c * c - 100.0, 1.0, region=Circle(0.0, 2.0))
        assert trace.iterates == [1.0, root] and root == pytest.approx(13.375)
        assert not trace.converged
        inside, _ = newton_root(lambda c: c * c - 100.0, 1.0, region=Circle(0.0, 60.0))
        assert inside == pytest.approx(10.0)

    def test_one_value_for_several_points_raises(self):
        with pytest.raises(ValueError, match=r"shape \(\) for points of shape \(3,\)"):
            newton_root(lambda c: complex(c[0]) - 2.0, 1.0)

    def test_derivative_breakdown(self):
        with pytest.raises(DerivativeBreakdown):
            newton_root(lambda c: 1.0 + 0.0 * c, 0.0)

    def test_nonconvergence_budget(self):
        with pytest.raises(NonConvergence):
            newton_root(lambda c: c * c - 2.0, 1.0, tol=1e-300, max_iter=2)

    def test_nonconvergence_releases_the_function(self):
        # the raised error carries the trace; it must not tie Newton's frame,
        # and with it g and whatever g captures, into a reference cycle
        class Payload:
            pass

        def run():
            payload = Payload()

            def g(c):
                return c * c - 2.0 + 0.0 * len([payload])

            try:
                newton_root(g, 1.0, tol=1e-300, max_iter=2)
            except NonConvergence as exc:
                assert len(exc.trace.iterates) == 3
            else:
                raise AssertionError("Newton converged to tol = 1e-300")
            return weakref.ref(payload)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()


class TestGridsAndCalculus:
    def test_graded_grid_shape(self):
        g = graded_grid(200, 40.0, cluster_scale=0.05)
        assert g[0] == 0.0 and g[-1] == pytest.approx(40.0)
        assert np.all(np.diff(g) > 0.0)
        assert g[1] - g[0] == pytest.approx(0.05 / 6.0, rel=0.2)

    @pytest.mark.parametrize("y_max", [0.0, -5.0, math.inf, math.nan])
    def test_graded_grid_needs_a_positive_finite_far_end(self, y_max):
        # 0 divided by zero, -5 gave a decreasing grid and inf a NaN grid
        with pytest.raises(ValueError, match="grid far end must be positive and finite"):
            graded_grid(100, y_max, cluster_scale=0.05)

    def test_graded_grid_matches_full_bisection(self):
        # the bisection stops once its midpoint rounds onto an end; the full
        # 200 steps would give the same grid
        def full_bisection(n, y_max, cluster):
            ratio = cluster / 6.0 * (n - 1) / y_max
            s = np.linspace(0.0, 1.0, n)
            if ratio >= 1.0:
                return y_max * s
            lo, hi = 1e-9, 60.0
            for _ in range(200):
                gamma = 0.5 * (lo + hi)
                if gamma / math.sinh(gamma) > ratio:
                    lo = gamma
                else:
                    hi = gamma
            gamma = 0.5 * (lo + hi)
            return y_max * np.sinh(gamma * s) / math.sinh(gamma)

        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(16, 2000))
            y_max, cluster = 10.0 ** rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-6.0, 1.0)
            assert np.array_equal(graded_grid(n, y_max, cluster_scale=cluster),
                                  full_bisection(n, y_max, cluster))

    def test_trap_weights_total(self):
        g = graded_grid(150, 10.0, cluster_scale=1.0)
        assert trap_weights(g).sum() == pytest.approx(10.0)

    def test_diff_matrices_converge(self):
        errs = []
        for n in (200, 400):
            g = graded_grid(n, 6.0, cluster_scale=0.5)
            f = np.sin(g)
            errs.append((np.max(np.abs(diff_matrix(g, 1) @ f - np.cos(g))[1:-1]),
                         np.max(np.abs(diff_matrix(g, 2) @ f + np.sin(g))[1:-1])))
        assert errs[0][0] / errs[1][0] > 3.0
        assert errs[0][1] / errs[1][1] > 3.0

    @pytest.mark.parametrize("n,y_max,cluster", [
        (16, 1.0, 1.0), (300, 40.0, 0.01), (1600, 900.0, 1e-4)])
    def test_diff_matrix_matches_loop_oracle(self, n, y_max, cluster):
        g = graded_grid(n, y_max, cluster_scale=cluster)
        for order in (1, 2):
            ref = _diff_matrix_loop(g, order)
            out = stencil_matrix(diff_matrix(g, order))
            for name in ("data", "indices", "indptr"):
                a, b = getattr(out, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("n,y_max,cluster", [(16, 1.0, 1.0), (1600, 900.0, 1e-4)])
    def test_stencil_applies_as_its_csr_matrix(self, n, y_max, cluster):
        # bit for bit, signs of zero included, for real and complex vectors
        g = graded_grid(n, y_max, cluster_scale=cluster)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[rng.integers(0, n, n // 3)] = 0.0
        v.real[rng.integers(0, n, n // 3)] = -0.0
        v.imag[rng.integers(0, n, n // 3)] = -0.0
        for order in (1, 2):
            stencil = diff_matrix(g, order)
            ref = _diff_matrix_loop(g, order)
            for x in (v, v.real.copy(), np.full(n, -0.0 + 0j)):
                out, want = stencil @ x, ref @ x
                assert out.dtype == want.dtype
                assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
                wall, want_wall = stencil.wall(x), (ref[0] @ x)[0]
                assert type(wall) is type(want_wall)
                assert np.array([wall]).view(np.uint64).tolist() == \
                    np.array([want_wall]).view(np.uint64).tolist()

    def test_diff_matrix_wall_row_slope(self):
        # the first row of d1 is the one-sided wall slope the resolvent reads
        g = graded_grid(400, 5.0, cluster_scale=0.05)
        f = np.exp(-2.0 * g) * np.cos(g)
        assert diff_matrix(g, 1).wall(f) == pytest.approx(-2.0, abs=2e-4)

    def test_cumulative_and_tail(self):
        g = np.linspace(0.0, 30.0, 4000)
        f = np.exp(-g)
        cum = cumulative_trapezoid(f, g)
        assert cum[-1] == pytest.approx(1.0, rel=1e-5)
        # the integral stops at the last node: no e^{-30} tail past it
        tail = tail_trapezoid(f, g)
        assert np.allclose(tail, np.exp(-g) - np.exp(-30.0), rtol=1e-4, atol=2e-15)

    @pytest.mark.parametrize("xi", [0.7 + 0.4j, 2.0 - 1.0j])
    def test_exp_integrals_against_closed_form(self, xi):
        g = graded_grid(1500, 25.0, cluster_scale=0.5)
        vals = np.exp(-2.0 * g)[None]
        back = _backward(vals, g, xi, tail_rate=2.0)[0]
        assert np.max(np.abs(back - np.exp(-2.0 * g) / (xi + 2.0))) < 2e-4
        fwd = _forward(vals, g, xi)[0]
        exact = (np.exp(-2.0 * g) - np.exp(-xi * g)) / (xi - 2.0)
        assert np.max(np.abs(fwd - exact)) < 2e-4
        # the piecewise-linear kernel integration is second order
        g2 = graded_grid(3000, 25.0, cluster_scale=0.5)
        back2 = _backward(np.exp(-2.0 * g2)[None], g2, xi, tail_rate=2.0)[0]
        err2 = np.max(np.abs(back2 - np.exp(-2.0 * g2) / (xi + 2.0)))
        assert np.max(np.abs(back - np.exp(-2.0 * g) / (xi + 2.0))) / err2 > 3.0


class TestHermite:
    grid = graded_grid(200, 40.0, cluster_scale=0.05)

    def test_reproduces_a_cubic_from_exact_slopes(self):
        coef = np.array([1.0 + 2.0j, -0.3, 0.05 + 0.01j, -1e-3j])
        cubic = np.polynomial.Polynomial(coef)
        Y = np.random.default_rng(0).uniform(0.0, 40.0, 500)
        got = hermite(self.grid, cubic(self.grid), cubic.deriv()(self.grid), Y)
        want = cubic(Y)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_equals_the_node_values_at_the_nodes(self):
        rng = np.random.default_rng(1)
        shape = (2, self.grid.size)
        vals, slopes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(hermite(self.grid, vals, slopes, self.grid), vals)

    def test_is_zero_past_the_last_node(self):
        vals = np.exp(-self.grid)
        got = hermite(self.grid, vals, -vals, [3.0, 40.0, 40.0 + 1e-9, 12e3])
        assert got[0] == pytest.approx(math.exp(-3.0), rel=1e-6)
        assert got[1] == vals[-1] and np.all(got[2:] == 0.0)

    @pytest.mark.parametrize("p0, full_os", [
        (SpectralParams.eighth(2.0, 1e-12), False),
        (SpectralParams.eighth(2.0, 1e-12), True),
        (SpectralParams.eighth(2.0, 1e-16), False),
        (SpectralParams.eighth(2.0, 1e-16), True),
        (SpectralParams.beta_regime(1.0, 0.11, 1e-24), False),
    ])
    def test_matches_the_spline_on_the_export_lattice(self, p0, full_os):
        # the certified mode on the default grid at export's Y: order 0 with
        # order 1 as slopes, order 1 with its difference slopes, against a
        # cubic spline through each order (measured 1.1e-8 and 8.3e-7)
        c = dispersion.certify(p0).c
        bvp = osresolvent.build_bvp(p0)
        Y = np.linspace(0.0, 40.0, 256)
        for f in osresolvent.build_mode(c, p0, bvp, full_os=full_os):
            spline = mode_from_grid(bvp.grid, f)
            for order, slopes, bound in ((0, f[1], 5e-8), (1, bvp.d1 @ f[1], 2e-6)):
                want = spline.eval(order, Y)
                got = hermite(bvp.grid, f[order], slopes, Y)
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _reference_backward(vals, grid, xi, tail_rate=0.0):
    """The backward exp-kernel recurrence as a sequential loop."""
    vals = np.asarray(vals, dtype=complex)
    h = np.diff(grid)
    decay = np.exp(-xi * h)
    ah, bh = numerics._exp_kernel_coeffs(xi * h, decay)
    local = h * (vals[:-1] * ah + (vals[1:] - vals[:-1]) * bh)
    out = np.zeros_like(vals)
    out[-1] = vals[-1] / (xi + tail_rate)
    for i in range(len(grid) - 2, -1, -1):
        out[i] = decay[i] * out[i + 1] + local[i]
    return out


def _reference_forward(vals, grid, xi):
    """The forward exp-kernel recurrence as a sequential loop."""
    vals = np.asarray(vals, dtype=complex)
    h = np.diff(grid)
    decay = np.exp(-xi * h)
    ah, bh = numerics._exp_kernel_coeffs(xi * h, decay)
    local = h * (vals[1:] * ah - (vals[1:] - vals[:-1]) * bh)
    out = np.zeros_like(vals)
    for i in range(1, len(grid)):
        out[i] = decay[i - 1] * out[i - 1] + local[i - 1]
    return out


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _one_rate(grid, xi):
    """The ``ExpKernel`` of the one rate ``xi`` on ``grid``."""
    return numerics.exp_kernel(np.asarray(grid, dtype=float), (xi,))


def _backward(vals, grid, xi, tail_rate=0.0):
    return backward_exp_integral(vals, grid, _one_rate(grid, xi), tail_rate=tail_rate)


def _forward(vals, grid, xi):
    return forward_exp_integral(vals, grid, _one_rate(grid, xi))


class TestExpKernelOracle:
    """Banded solves of the exp-kernel recurrences against the sequential loop."""

    # graded grids on which xi*h spans both coefficient branches: the series
    # (|xi h| < 1e-2) near the wall and e^{-xi h} == 0 in the far field
    CASES = [((400, 2000.0, 1e-4), 40.0 + 25.0j),
             ((300, 3e4, 1e-3), 0.9 + 0.5j),
             ((1500, 25.0, 0.5), 0.7 + 0.4j)]

    @staticmethod
    def _data(spec, seed=0):
        """A grid and random values on it, as the one row of a (1, N) block."""
        grid = graded_grid(spec[0], spec[1], cluster_scale=spec[2])
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        return grid, vals[None]

    @pytest.mark.parametrize("spec,xi", CASES)
    @pytest.mark.parametrize("tail_rate", [0.0, 0.8])
    def test_matches_sequential_loop(self, spec, xi, tail_rate):
        grid, vals = self._data(spec)
        back = _backward(vals, grid, xi, tail_rate=tail_rate)[0]
        assert _max_rel(back, _reference_backward(vals[0], grid, xi, tail_rate)) <= 1e-13
        fwd = _forward(vals, grid, xi)[0]
        assert _max_rel(fwd, _reference_forward(vals[0], grid, xi)) <= 1e-13

    def test_cases_cover_both_coefficient_branches(self):
        x = np.concatenate([xi * np.diff(graded_grid(spec[0], spec[1], cluster_scale=spec[2]))
                            for spec, xi in self.CASES])
        assert np.any(np.abs(x) < 1e-2)
        assert np.any(np.exp(-x) == 0.0)

    def test_list_and_strided_inputs(self):
        spec, xi = self.CASES[0]
        grid, vals = self._data(spec, seed=1)
        ref_b = _reference_backward(vals[0], grid, xi, 0.8)
        ref_f = _reference_forward(vals[0], grid, xi)
        strided = np.repeat(grid, 2)[::2]
        assert not strided.flags.c_contiguous
        for g, v in ((grid.tolist(), vals.tolist()),
                     (strided, np.repeat(vals, 2, axis=1)[:, ::2])):
            assert _max_rel(_backward(v, g, xi, tail_rate=0.8)[0], ref_b) <= 1e-13
            assert _max_rel(_forward(v, g, xi)[0], ref_f) <= 1e-13

    def test_equal_grids_share_results(self):
        # a kernel reads only the values of its grid
        spec, xi = self.CASES[1]
        grid, vals = self._data(spec, seed=2)
        twin = grid.copy()
        assert twin is not grid
        assert np.array_equal(_backward(vals, grid, xi), _backward(vals, twin, xi))
        assert np.array_equal(_forward(vals, grid, xi), _forward(vals, twin, xi))


class TestStackedKernels:
    """An ``ExpKernel`` of several rates integrates the rows of a block with
    the bits of each rate's own kernel and solve."""

    RATES = (0.9 + 0.5j, 40.0 + 25.0j, 0.7 - 0.4j)

    @staticmethod
    def _block():
        grid = graded_grid(300, 3e4, cluster_scale=1e-3)
        rng = np.random.default_rng(4)
        shape = (len(TestStackedKernels.RATES), grid.size)
        return grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_rows_have_the_bits_of_their_own_integrals(self):
        # on one grid that the rates share, then on a (k, N) grid per rate
        shared, vals = self._block()
        own_grids = np.array([graded_grid(300, 3e4, cluster_scale=1e-3 * (j + 1))
                              for j in range(len(self.RATES))])
        for grid in (shared, own_grids):
            kernel = numerics.exp_kernel(grid, self.RATES)
            back = backward_exp_integral(vals, grid, kernel, tail_rate=0.8)
            fwd = forward_exp_integral(vals, grid, kernel)
            for j, xi in enumerate(self.RATES):
                row = grid if grid.ndim == 1 else grid[j]
                own = numerics.exp_kernel(row, (xi,))
                for name in ("ah", "bh"):
                    assert getattr(kernel, name)[j].tobytes() == getattr(own, name)[0].tobytes()
                assert back[j].tobytes() == _backward(vals[j:j + 1], row, xi,
                                                      tail_rate=0.8).tobytes()
                assert fwd[j].tobytes() == _forward(vals[j:j + 1], row, xi).tobytes()


# factor, solve (plain and conjugate-transposed) and bidiagonal-solve random
# banded systems with the routines of a LAPACK module ``lib``; prints a digest
# of every output's bytes
_LAPACK_RUN = """
import hashlib
import numpy as np

def digest(lib):
    rng = np.random.default_rng(3)
    h = hashlib.sha256()
    for n, kl, ku in ((40, 5, 4), (301, 5, 3), (123, 2, 5)):
        band = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
        shape = (kl + ku + 1, n)
        band[kl:] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        lu, piv, info = lib.zgbtrf(band, kl, ku)
        tri = np.ones((2, n), dtype=complex, order="F")
        tri[0, 1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        for out in (lu, piv, info, lib.zgbtrs(lu, kl, ku, b, piv)[0],
                    lib.zgbtrs(lu, kl, ku, b, piv, trans=2)[0],
                    lib.ztbtrs(tri, b[:, 0].copy(), uplo="U", diag="U")[0]):
            h.update(np.asarray(out).tobytes())
    return h.hexdigest()
"""


def _run_fresh(code):
    """Run ``code`` in a new interpreter and return the words it prints."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LAPACK_RUN + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestLapackBinding:
    def test_bound_routines_match_scipy_lapack(self):
        # bound without scipy.linalg, the routines give the bytes of
        # scipy.linalg.lapack's in a process that imports it the usual way;
        # a later import of scipy.linalg reuses the bound module
        bound = _run_fresh(
            "import sys\n"
            "from tswave import numerics\n"
            "lib = numerics.flapack()\n"
            "assert 'scipy.linalg' not in sys.modules and 'scipy' not in sys.modules\n"
            "print(digest(lib))\n"
            "from scipy.linalg import lapack\n"
            "assert sys.modules['scipy.linalg._flapack'] is lib\n"
            "assert all(getattr(lapack, f) is getattr(lib, f)\n"
            "           for f in ('zgbtrf', 'zgbtrs', 'ztbtrs'))\n"
            "assert numerics.flapack() is lib\n"
            "print(digest(lapack))\n")
        plain = _run_fresh("from scipy.linalg import lapack\nprint(digest(lapack))\n")
        assert bound == plain * 2

    def test_loaded_extension_is_reused(self):
        # with scipy.linalg imported first, the binding loads nothing new
        out = _run_fresh(
            "import sys\n"
            "from scipy.linalg import lapack\n"
            "from tswave import numerics\n"
            "print(numerics.flapack() is sys.modules['scipy.linalg._flapack'])\n")
        assert out == ["True"]

    def test_missing_extension_falls_back_to_scipy_linalg(self):
        out = _run_fresh(
            "import sys\n"
            "from tswave import numerics\n"
            "numerics._flapack_path = lambda: None\n"
            "lib = numerics.flapack()\n"
            "from scipy.linalg import lapack\n"
            "print(lib is lapack, digest(lib))\n")
        plain = _run_fresh("from scipy.linalg import lapack\nprint(digest(lapack))\n")
        assert out == ["True", *plain]

    def test_extension_path_found_without_importing_scipy(self):
        out = _run_fresh(
            "import sys\n"
            "from tswave import numerics\n"
            "path = numerics._flapack_path()\n"
            "print('scipy' in sys.modules, '_flapack' in path)\n")
        assert out == ["False", "True"]


def test_program_keeps_two_module_memos():
    # a module-level memo outlives every call and every DiscreteBVP, so one
    # is kept only for state that no grid or wave speed changes: the LAPACK
    # binding and the Airy series' step factors.  State of a grid lives on
    # its DiscreteBVP, and state of one call is passed down
    memos = []
    for info in pkgutil.iter_modules(tswave.__path__):
        module = importlib.import_module(f"tswave.{info.name}")
        memos += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_clear")
                  and getattr(obj, "__module__", None) == module.__name__]
    assert sorted(memos) == ["airy._step_columns", "numerics.flapack"]


class TestL2Norm:
    def test_zero_values_against_infinite_weight(self):
        wts = np.ones(3)
        weight = np.array([2.0, np.inf, np.inf])
        assert l2_norm(np.array([1.0, 0.0, 0.0]), wts, weight) == pytest.approx(2.0)
        # entries masked by the noise floor also skip the weight
        assert l2_norm(np.array([1.0, 1e-20, 0.0]), wts, weight,
                       noise_floor=1e-13) == pytest.approx(2.0)

    def test_weight_applies_to_nonzero_entries(self):
        v = np.array([3.0, -4.0j, 0.0])
        wts = np.array([0.5, 0.25, 1.0])
        weight = np.array([2.0, 3.0, 5.0])
        expect = math.sqrt(0.5 * 36.0 + 0.25 * 144.0)
        assert l2_norm(v, wts, weight) == pytest.approx(expect, rel=1e-15)


def test_segment_and_circle_validation():
    with pytest.raises(ValueError):
        Segment(1.0, 1.0)
    with pytest.raises(ValueError):
        Circle(0.0, 0.0)
    ray = Ray(0.0, 3.0 + 4.0j)
    assert abs(ray.direction) == pytest.approx(1.0)
    assert RootTrace().final_residual == math.inf
