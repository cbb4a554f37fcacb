import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tswave import numerics
from tswave.errors import (DerivativeBreakdown, NonConvergence, ZeroOnContour)
from tswave.numerics import (
    Circle, Ray, RootTrace, Segment, backward_exp_integral, boundary_slope,
    cumulative_trapezoid, diff_matrix, forward_exp_integral, graded_grid,
    l2_norm, newton_root, quad_segment, tail_trapezoid, trap_weights,
    winding_samples,
)


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

    def test_min_samples(self):
        with pytest.raises(ValueError):
            winding_samples(lambda c: c, Circle(0.0, 1.0), init_samples=8)

    def test_scalar_only_map_evaluated_once_per_sample(self):
        # .item() takes one point only: the initial round goes point by
        # point, a one-point refinement round as a (1,) array whose scalar
        # result must be kept, not computed again
        calls = []

        def g(z):
            val = complex(np.asarray(z).item()) - 0.93
            calls.append(val)
            return val

        winding, thetas, _ = winding_samples(g, Circle(0.0, 1.0), init_samples=16)
        assert winding == 1
        assert thetas.size == 18
        assert len(calls) == thetas.size


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
        shapes = []

        def g(c):
            shapes.append(np.shape(c))
            return c * c - 2.0

        root, trace = newton_root(g, 1.0)
        assert trace.converged
        assert shapes.count((2,)) == len(trace.iterates) - 1
        assert set(shapes) == {(), (2,)}

    def test_scalar_only_map_converges(self):
        # complex() of an array raises TypeError: every point goes alone
        def g(c):
            c = complex(c)
            return (c - 0.5j) * (c + 2.0)

        root, trace = newton_root(g, 0.2 + 0.3j, tol=1e-13)
        assert trace.converged
        assert root == pytest.approx(0.5j, abs=1e-12)
        vec_root, vec_trace = newton_root(lambda c: (c - 0.5j) * (c + 2.0),
                                          0.2 + 0.3j, tol=1e-13)
        assert len(trace.iterates) == len(vec_trace.iterates)
        assert root == pytest.approx(vec_root, abs=1e-14)

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
            out = diff_matrix(g, order)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(out, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_boundary_slope(self):
        g = graded_grid(400, 5.0, cluster_scale=0.05)
        f = np.exp(-2.0 * g) * np.cos(g)
        assert boundary_slope(g, f) == pytest.approx(-2.0, abs=2e-4)

    def test_cumulative_and_tail(self):
        g = np.linspace(0.0, 30.0, 4000)
        f = np.exp(-g)
        cum = cumulative_trapezoid(f, g)
        assert cum[-1] == pytest.approx(1.0, rel=1e-5)
        tail = tail_trapezoid(f, g, tail_rate=1.0)
        assert np.allclose(tail, np.exp(-g), rtol=1e-4)

    @pytest.mark.parametrize("xi", [0.7 + 0.4j, 2.0 - 1.0j])
    def test_exp_integrals_against_closed_form(self, xi):
        g = graded_grid(1500, 25.0, cluster_scale=0.5)
        vals = np.exp(-2.0 * g)
        back = backward_exp_integral(vals, g, xi, tail_rate=2.0)
        assert np.max(np.abs(back - np.exp(-2.0 * g) / (xi + 2.0))) < 2e-4
        fwd = forward_exp_integral(vals, g, xi)
        exact = (np.exp(-2.0 * g) - np.exp(-xi * g)) / (xi - 2.0)
        assert np.max(np.abs(fwd - exact)) < 2e-4
        # the piecewise-linear kernel integration is second order
        g2 = graded_grid(3000, 25.0, cluster_scale=0.5)
        back2 = backward_exp_integral(np.exp(-2.0 * g2), g2, xi, tail_rate=2.0)
        err2 = np.max(np.abs(back2 - np.exp(-2.0 * g2) / (xi + 2.0)))
        assert np.max(np.abs(back - np.exp(-2.0 * g) / (xi + 2.0))) / err2 > 3.0


def _reference_backward(vals, grid, xi, tail_rate=0.0):
    """The backward exp-kernel recurrence as a sequential loop."""
    vals = np.asarray(vals, dtype=complex)
    h = np.diff(grid)
    ah, bh = numerics._exp_kernel_coeffs(xi * h)
    local = h * (vals[:-1] * ah + (vals[1:] - vals[:-1]) * bh)
    decay = np.exp(-xi * h)
    out = np.zeros_like(vals)
    out[-1] = vals[-1] / (xi + tail_rate)
    for i in range(len(grid) - 2, -1, -1):
        out[i] = decay[i] * out[i + 1] + local[i]
    return out


def _reference_forward(vals, grid, xi):
    """The forward exp-kernel recurrence as a sequential loop."""
    vals = np.asarray(vals, dtype=complex)
    h = np.diff(grid)
    ah, bh = numerics._exp_kernel_coeffs(xi * h)
    local = h * (vals[1:] * ah - (vals[1:] - vals[:-1]) * bh)
    decay = np.exp(-xi * h)
    out = np.zeros_like(vals)
    for i in range(1, len(grid)):
        out[i] = decay[i - 1] * out[i - 1] + local[i - 1]
    return out


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestExpKernelOracle:
    """Banded solves of the exp-kernel recurrences against the sequential loop."""

    # graded grids on which xi*h spans both coefficient branches: the series
    # (|xi h| < 1e-2) near the wall and e^{-xi h} == 0 in the far field
    CASES = [((400, 2000.0, 1e-4), 40.0 + 25.0j),
             ((300, 3e4, 1e-3), 0.9 + 0.5j),
             ((1500, 25.0, 0.5), 0.7 + 0.4j)]

    @staticmethod
    def _data(spec, seed=0):
        grid = graded_grid(spec[0], spec[1], cluster_scale=spec[2])
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        return grid, vals

    @pytest.mark.parametrize("spec,xi", CASES)
    @pytest.mark.parametrize("tail_rate", [0.0, 0.8])
    def test_matches_sequential_loop(self, spec, xi, tail_rate):
        grid, vals = self._data(spec)
        back = backward_exp_integral(vals, grid, xi, tail_rate=tail_rate)
        assert _max_rel(back, _reference_backward(vals, grid, xi, tail_rate)) <= 1e-13
        fwd = forward_exp_integral(vals, grid, xi)
        assert _max_rel(fwd, _reference_forward(vals, grid, xi)) <= 1e-13

    def test_cases_cover_both_coefficient_branches(self):
        x = np.concatenate([xi * np.diff(graded_grid(spec[0], spec[1], cluster_scale=spec[2]))
                            for spec, xi in self.CASES])
        assert np.any(np.abs(x) < 1e-2)
        assert np.any(np.exp(-x) == 0.0)

    def test_list_and_strided_inputs(self):
        spec, xi = self.CASES[0]
        grid, vals = self._data(spec, seed=1)
        ref_b = _reference_backward(vals, grid, xi, 0.8)
        ref_f = _reference_forward(vals, grid, xi)
        strided = np.repeat(grid, 2)[::2]
        assert not strided.flags.c_contiguous
        for g, v in ((grid.tolist(), vals.tolist()), (strided, np.repeat(vals, 2)[::2])):
            assert _max_rel(backward_exp_integral(v, g, xi, tail_rate=0.8), ref_b) <= 1e-13
            assert _max_rel(forward_exp_integral(v, g, xi), ref_f) <= 1e-13

    def test_equal_grids_share_results(self):
        spec, xi = self.CASES[1]
        grid, vals = self._data(spec, seed=2)
        twin = grid.copy()
        assert twin is not grid
        assert np.array_equal(backward_exp_integral(vals, grid, xi),
                              backward_exp_integral(vals, twin, xi))
        assert np.array_equal(forward_exp_integral(vals, grid, xi),
                              forward_exp_integral(vals, twin, xi))

    def test_grid_changed_in_place_recomputes(self):
        spec, xi = self.CASES[2]
        grid, vals = self._data(spec, seed=3)
        backward_exp_integral(vals, grid, xi)
        forward_exp_integral(vals, grid, xi)
        grid *= 1.5
        assert _max_rel(backward_exp_integral(vals, grid, xi),
                        _reference_backward(vals, grid, xi)) <= 1e-13
        assert _max_rel(forward_exp_integral(vals, grid, xi),
                        _reference_forward(vals, grid, xi)) <= 1e-13

    def test_cached_arrays_are_read_only(self):
        spec, xi = self.CASES[2]
        grid, vals = self._data(spec)
        backward_exp_integral(vals, grid, xi)
        cached = numerics._exp_kernel(grid.tobytes(), complex(xi))
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


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
