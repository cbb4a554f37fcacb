import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from oracles import newton_loop
from tswave import airy, cli, dispersion, fastmode, numerics, osresolvent, slowmode
from tswave.errors import WindingNotOne
from tswave.numerics import Circle, newton_root, winding_samples
from tswave.params import SpectralParams
from tswave.profile import DEFAULT_PROFILE


def h_star(A):
    return A + cmath.exp(1j * math.pi / 4.0) / A


class TestReferenceMaps:
    def test_zero_and_modulus(self):
        p = SpectralParams.eighth(4.0, 1e-10)
        hs = h_star(4.0)
        assert dispersion.gamma_ref_hat(hs, p) == pytest.approx(0.0, abs=1e-14)
        for phase in np.linspace(0.0, 2 * math.pi, 9):
            h = hs + 4.0 ** (-1.5) * cmath.exp(1j * phase)
            assert abs(dispersion.gamma_ref_hat(h, p)) == pytest.approx(
                4.0 ** -0.5, rel=1e-12)

    def test_beta_reference(self):
        p = SpectralParams.beta_regime(1.0, 0.115, 1e-10)
        cstst = dispersion.center_beta(p)
        assert dispersion.gamma_ref_beta(cstst, p) == pytest.approx(0.0, abs=1e-12)
        disk = dispersion.disk_beta(p, r3=0.5)
        for phase in np.linspace(0.0, 2 * math.pi, 7):
            c = disk.center + disk.radius * cmath.exp(1j * phase)
            assert abs(dispersion.gamma_ref_beta(c, p)) == pytest.approx(0.5, rel=1e-10)

    def test_r3_window(self):
        p = SpectralParams.beta_regime(1.0, 0.115, 1e-10)
        with pytest.raises(ValueError):
            dispersion.disk_beta(p, r3=0.8)

    def test_newton_on_reference(self):
        # affine map: Newton lands on the reference root in one damped pass
        p = SpectralParams.eighth(4.0, 1e-10)
        root, trace = newton_root(lambda h: dispersion.gamma_ref_hat(h, p),
                                  h_star(4.0) + 0.01, tol=1e-13)
        assert root == pytest.approx(h_star(4.0), abs=1e-12)
        assert trace.converged


class TestCertifiedRootFinding:
    def test_reference_map_certifies(self):
        p = SpectralParams.eighth(4.0, 1e-10)
        disk = Circle(h_star(4.0), 4.0 ** (-1.5))
        rep = dispersion.find_root_certified(
            lambda h: dispersion.gamma_ref_hat(h, p), disk, tol=1e-12,
            g_ref=lambda h: dispersion.gamma_ref_hat(h, p))
        assert rep.winding == 1
        assert rep.c_root == pytest.approx(h_star(4.0), abs=1e-11)
        assert rep.boundary_min_abs == pytest.approx(0.5, rel=1e-6)
        assert rep.reference_gap_max <= 1e-12
        assert rep.certified

    def test_no_zero_in_shifted_disk(self):
        p = SpectralParams.eighth(4.0, 1e-10)
        disk = Circle(h_star(4.0) + 1.0, 0.125)
        with pytest.raises(WindingNotOne) as err:
            dispersion.find_root_certified(
                lambda h: dispersion.gamma_ref_hat(h, p), disk)
        assert err.value.winding == 0
        assert err.value.report.boundary_min_abs > 0.0

    def test_winding_not_one_releases_the_function(self):
        # the caught error keeps its report, but once it goes out of scope
        # nothing of the evaluation (here: g's capture) may stay alive until
        # the next cyclic collection
        class Payload:
            pass

        def run():
            payload = Payload()

            def g(h):
                return h - 10.0 + 0.0 * len([payload])

            try:
                dispersion.find_root_certified(g, Circle(0.0, 1.0))
            except WindingNotOne as exc:
                assert exc.report.winding == 0 and exc.report.samples == 65
            return weakref.ref(payload)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()

    def test_report_counts_winding_samples(self):
        # every point handed to the map is recorded; the root sits near the
        # boundary of the first disk, which forces refinement there
        p = SpectralParams.eighth(4.0, 1e-10)
        calls = []

        def g(h):
            calls.extend(h.tolist())
            return dispersion.gamma_ref_hat(h, p)

        for disk in (Circle(h_star(4.0) + 0.9 * 0.125, 0.125),
                     Circle(h_star(4.0) + 1.0, 0.125)):
            _, thetas, _ = winding_samples(g, disk, 16)
            calls.clear()
            try:
                rep = dispersion.find_root_certified(g, disk, init_samples=16)
            except WindingNotOne as exc:
                rep = exc.report
                assert len(calls) == rep.samples
            else:
                assert rep.certified and rep.samples > 17
                assert len(calls) > rep.samples        # Newton's evaluations
            assert rep.samples == thetas.size
            # refinement adds points out of angular order
            assert set(calls[:rep.samples]) == set(disk.point(thetas))

    def test_reference_map_is_called_once_at_the_winding_points(self):
        # the gap |g - g_ref| is taken at the boundary points g saw, handed
        # to g_ref as one array
        p = SpectralParams.eighth(2.0, 1e-12)
        seen, ref_calls = {}, []

        def g(w):
            vals = dispersion.gamma0(p.chat_to_c(w), p)
            for point, val in zip(np.atleast_1d(w).tolist(), np.atleast_1d(vals).tolist()):
                seen.setdefault(point, val)
            return vals

        def g_ref(w):
            ref_calls.append(w)
            return dispersion.gamma_ref_hat(w / p.eps ** 0.125, p)

        rep = dispersion.find_root_certified(g, dispersion.disk_eighth(p), g_ref=g_ref)
        assert rep.certified
        assert len(ref_calls) == 1
        points = ref_calls[0]
        assert isinstance(points, np.ndarray) and points.shape == (rep.samples,)
        assert set(points.tolist()) <= set(seen)
        gaps = [abs(seen[w] - r) for w, r in zip(points.tolist(), g_ref(points).tolist())]
        assert rep.reference_gap_max == max(gaps)


class TestEighthRegime:
    def test_certifies_in_asymptotic_basin(self):
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify_eighth(p0)
        assert rep.winding == 1
        assert rep.certified
        assert rep.newton.final_residual < 1e-10
        assert rep.disk.contains(rep.c_root)
        # growing mode: positive imaginary part of the physical wave speed
        assert p0.chat_to_c(rep.c_root).imag > 0.0

    def test_root_approaches_leading_eigenvalue(self):
        # the root converges to h_* + O(A^-2); at A = 4 that offset is small
        # enough for the distance to shrink monotonically through the sweep
        dists = []
        for eps in (1e-24, 1e-26, 1e-28):
            p0 = SpectralParams.eighth(4.0, eps)
            rep = dispersion.certify_eighth(p0)
            dists.append(abs(rep.c_root / eps ** 0.125 - h_star(4.0)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.05

    def test_large_amplitude_basin(self):
        # the amplitude threshold is steeper: A = 4 enters its basin much deeper
        p0 = SpectralParams.eighth(4.0, 1e-28)
        rep = dispersion.certify_eighth(p0)
        assert rep.winding == 1
        assert rep.boundary_min_abs >= 0.4 * 4.0 ** -0.5
        assert abs(rep.c_root / 1e-28 ** 0.125 - h_star(4.0)) < 0.05

    def test_desk_scale_outside_basin_reports_winding_zero(self):
        # at eps = 1e-10 and A = 2 the expansion corrections dominate and the
        # unique zero sits outside the shrinking disk: certification must
        # refuse, not fabricate a root
        with pytest.raises(WindingNotOne) as err:
            dispersion.certify_eighth(SpectralParams.eighth(2.0, 1e-10))
        assert err.value.winding == 0

    def test_reports_carry_the_disk_variable_and_the_wave_speed(self):
        # the disk is drawn in c_hat, so a refusal says so too
        with pytest.raises(WindingNotOne) as err:
            dispersion.certify(SpectralParams.eighth(2.0, 1e-10))
        assert err.value.report.variable == "c_hat"
        assert err.value.report.c is None
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify(p0)
        assert rep.certified and rep.variable == "c_hat"
        assert rep.c == p0.chat_to_c(rep.c_root)
        assert dispersion.center_c(p0) == p0.chat_to_c(rep.disk.center)

    def test_given_g_is_a_function_of_the_wave_speed(self):
        # Gamma0 handed in as g retraces the default certification, without
        # the reference gap
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify(p0, g=lambda c: dispersion.gamma0(c, p0))
        default = dispersion.certify(p0)
        assert (rep.c_root, rep.c, rep.samples) == (default.c_root, default.c,
                                                    default.samples)
        assert math.isnan(rep.reference_gap_max)
        assert not math.isnan(default.reference_gap_max)

    def test_certified_newton_path_may_leave_the_disk(self):
        # from the disk center the first step lands 1.07 radii out and the
        # next ones come back to a root at 0.96 radii: stopping Newton at the
        # first iterate outside the disk would refuse this root, the reach of
        # the certification keeps it
        p0 = SpectralParams.eighth(2.0, 1e-24)
        disk = dispersion.disk_eighth(p0)
        root, trace = newton_root(
            lambda w: dispersion.gamma0(p0.chat_to_c(w), p0), disk.center, max_iter=60,
            region=Circle(disk.center, dispersion._NEWTON_REACH * disk.radius))
        assert trace.converged
        excursion = max(abs(z - disk.center) for z in trace.iterates)
        assert 1.0 < excursion / disk.radius < dispersion._NEWTON_REACH
        assert disk.contains(root)

    @pytest.mark.parametrize("A, eps", [(2.0, 1e-12), (2.0, 1e-24), (3.0, 1e-24),
                                        (4.0, 1e-26)])
    def test_newton_matches_reference_bit_for_bit(self, A, eps):
        # one 3-point call per point gives the iterates and residuals of the
        # reference iteration with one call per point, from the same start
        p0 = SpectralParams.eighth(A, eps)
        rep = dispersion.certify_eighth(p0)
        assert rep.certified
        root, iterates, residuals, converged = newton_loop(
            lambda w: dispersion.gamma0(p0.chat_to_c(w), p0), rep.newton.iterates[0],
            max_iter=60)
        assert converged
        assert np.array_equal(np.array(rep.newton.iterates).view(float),
                              np.array(iterates).view(float))
        assert rep.newton.residuals == residuals
        assert np.array([rep.c_root]).view(float).tolist() == [root.real, root.imag]

    def test_gamma0_center_value_shrinks_deep(self):
        vals = []
        for eps in (1e-24, 1e-26, 1e-28):
            p0 = SpectralParams.eighth(4.0, eps)
            c = dispersion.center_c(p0)
            vals.append(abs(dispersion.gamma0(c, p0)))
        assert vals[0] > vals[1] > vals[2]


class TestTaylorSeed:
    @pytest.mark.parametrize("A, eps", [(2.0, 1e-12), (2.0, 1e-16), (2.0, 1e-24),
                                        (2.5, 1e-20), (3.0, 1e-24), (4.0, 1e-26),
                                        (4.0, 1e-32), (5.0, 1e-28)])
    def test_series_root_is_the_root_newton_finds(self, A, eps):
        # Newton from the root of the first round's Taylor series takes no
        # step and ends within 1e-12 radii of Newton's root from the center
        p0 = SpectralParams.eighth(A, eps)
        rep = dispersion.certify_eighth(p0)
        assert rep.certified
        assert len(rep.newton.iterates) == 1 and rep.series_tail < 1e-13
        disk = rep.disk
        root, trace = newton_root(
            lambda w: dispersion.gamma0(p0.chat_to_c(w), p0), disk.center, max_iter=60,
            region=Circle(disk.center, dispersion._NEWTON_REACH * disk.radius))
        assert trace.converged and len(trace.iterates) > 3
        assert abs(rep.c_root - root) <= 1e-12 * disk.radius

    def test_tail_resolves_gamma0_but_not_the_exact_gamma(self):
        # Gamma0 is analytic on the A = 2 disk and 64 samples resolve it; the
        # exact Gamma there winds 3, so no report carries its tail: its
        # first round is evaluated at the same points
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify(p0)
        assert rep.series_tail < 1e-13
        thetas = math.pi / 64 + np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
        c = p0.chat_to_c(rep.disk.point(thetas))
        gamma, _ = osresolvent.remainder_and_gamma(c, p0, osresolvent.build_bvp(p0, n_nodes=400))
        assert dispersion.taylor_series(thetas, gamma)[1] > 0.1

    def test_series_of_a_polynomial(self):
        # the trapezoidal rule is exact for a polynomial of degree below M/2
        circle = Circle(0.3 + 0.1j, 0.5)
        thetas = math.pi / 16 + np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
        w = (circle.point(thetas) - circle.center) / circle.radius
        b, tail = dispersion.taylor_series(thetas, 0.4 - 2j * w + w ** 3)
        assert np.allclose(b, [0.4, -2j, 0.0, 1.0, 0, 0, 0, 0], atol=1e-15)
        assert tail < 1e-14
        assert dispersion._series_root(np.array([-0.5, 1.0])) == 0.5
        assert dispersion._series_root(np.array([2.0, 1.0])) is None   # root at -2

    def test_non_analytic_g_starts_from_the_center(self):
        # w + 0.3 conj(w) winds once on the unit circle, but its k = -1
        # coefficient is 0.3: no seed
        disk = Circle(0.2 + 0.0j, 1.0)
        rep = dispersion.find_root_certified(lambda z: z - 0.2 + 0.3 * np.conj(z - 0.2) - 0.06,
                                             disk)
        assert rep.certified and rep.samples == 65
        assert abs(rep.series_tail - 0.3) < 1e-12
        assert rep.newton.iterates[0] == disk.center

    def test_refined_winding_count_reads_its_first_round(self):
        # the root lies 0.96 radii out, so the first round's phase steps
        # need the pi/2 refinement; the series comes from the first round's
        # 64 points among the refined samples
        p0 = SpectralParams.eighth(2.0, 1e-24)
        rep = dispersion.certify_eighth(p0)
        assert rep.certified and rep.samples > 65
        thetas = math.pi / 64 + np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
        vals = dispersion.gamma0(p0.chat_to_c(rep.disk.point(thetas)), p0)
        assert rep.series_tail == dispersion.taylor_series(thetas, vals)[1]
        assert len(rep.newton.iterates) == 1


def gamma0_scalar_oracle(c, params):
    """Gamma0 one point at a time in Python complex arithmetic, through
    ``with_c`` and ``params.z0``: the boundary closed forms written out
    separately from ``slowmode.boundary_values``."""
    p = params.with_c(c)
    chat, a = p.c_hat, p.alpha
    j0 = complex(DEFAULT_PROFILE.inv_square_integral(0.0, chat))
    psi02_0 = -chat * j0
    dpsi02_0 = j0 - 1.0 / chat
    phi0 = -chat - a * psi02_0 * (1.0 - 2.0 * chat)
    dphi0 = 1.0 + a * chat + a * (1.0 - 2.0 * chat) * (a * psi02_0 - dpsi02_0)
    ratio = airy.ai_k(1, p.z0) / airy.ai_k(2, p.z0)
    return dphi0 - phi0 * ratio / p.delta


def boundary_speeds(params0, n_points=16):
    """Wave speeds c on the certification circle, at the half-step phases of
    the winding count (the A = 2 circle touches Im c_hat = 0)."""
    disk = dispersion.disk_eighth(params0)
    thetas = math.pi / n_points + np.linspace(0.0, 2.0 * math.pi, n_points,
                                              endpoint=False)
    return params0.chat_to_c(np.append(disk.point(thetas), disk.center))


class TestGamma0OnArrays:
    @pytest.mark.parametrize("A", [2.0, 3.0, 4.0])
    def test_matches_scalar_oracle(self, A):
        # cancellation in dPhi0 - Phi0 * ratio / delta costs a few ulps
        worst = 0.0
        for eps in (1e-8, 1e-12, 1e-16, 1e-20, 1e-24, 1e-28):
            p0 = SpectralParams.eighth(A, eps)
            c = boundary_speeds(p0)
            vals = dispersion.gamma0(c, p0)
            oracle = np.array([gamma0_scalar_oracle(x, p0) for x in c])
            worst = max(worst, float(np.max(np.abs(vals - oracle) / np.abs(oracle))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("A, eps", [(2.0, 1e-12), (3.0, 1e-20), (4.0, 1e-28)])
    def test_array_equals_pointwise_calls_bit_for_bit(self, A, eps):
        p0 = SpectralParams.eighth(A, eps)
        c = boundary_speeds(p0, 64)
        vals = dispersion.gamma0(c, p0)
        single = [dispersion.gamma0(x, p0) for x in c]
        assert all(type(v) is complex for v in single)
        assert vals.shape == c.shape
        assert vals.tolist() == single

    def test_point_below_the_axis_raises_as_alone(self):
        p0 = SpectralParams.eighth(2.0, 1e-12)
        c = boundary_speeds(p0)
        c[3] = c[3].real - 2j / p0.n            # Im c_hat = -1/n
        with pytest.raises(ValueError) as alone:
            dispersion.gamma0(c[3], p0)
        with pytest.raises(ValueError) as in_array:
            dispersion.gamma0(c, p0)
        assert str(in_array.value) == str(alone.value)
        assert "Im c_hat must be positive" in str(alone.value)
        # the winding count's evaluator passes the same error on
        with pytest.raises(ValueError) as evaluated:
            numerics._values(lambda w: dispersion.gamma0(w, p0), c)
        assert str(evaluated.value) == str(alone.value)

    def test_certify_evaluates_gamma0_once_per_winding_round(self, monkeypatch):
        # a spy on gamma0 and on the winding count's evaluator: each round
        # of boundary points is one array call
        p0 = SpectralParams.eighth(2.0, 1e-12)
        gamma0, values = dispersion.gamma0, numerics._values
        in_winding, rounds, calls = [False], [], []

        def gamma0_spy(c, params):
            out = gamma0(c, params)
            calls.append((in_winding[0], np.shape(c)))
            return out

        def rounds_spy(f, z):
            rounds.append(np.size(z))
            return values(f, z)

        def winding_spy(*args, **kwargs):
            in_winding[0] = True
            try:
                return winding_samples(*args, **kwargs)
            finally:
                in_winding[0] = False

        monkeypatch.setattr(dispersion, "gamma0", gamma0_spy)
        monkeypatch.setattr(dispersion, "winding_samples", winding_spy)
        monkeypatch.setattr(numerics, "_values", rounds_spy)
        rep = dispersion.certify_eighth(p0)
        assert rep.certified
        winding_shapes = [shape for inside, shape in calls if inside]
        assert winding_shapes == [(n,) for n in rounds[:len(winding_shapes)]]
        assert sum(n for (n,) in winding_shapes) == rep.samples
        # Newton: each point with its two difference points as one array
        newton_shapes = [shape for inside, shape in calls if not inside]
        assert newton_shapes == [(3,)] * len(rep.newton.iterates)


class TestBetaRegime:
    def test_array_equals_scalar_calls_bit_for_bit(self):
        # a winding count's first round goes in blocks of the hierarchy;
        # each value has the bits of Gamma0 of its point's hierarchy alone,
        # and of a scalar call
        for beta in (0.1075, 0.11):
            p0 = SpectralParams.beta_regime(1.0, beta, 1e-24)
            disk = dispersion.disk_beta(p0)
            c = disk.point(math.pi / 64 + np.linspace(0.0, 2.0 * math.pi, 65))
            alone = []
            for x in c:
                p = p0.with_c(x)
                phi0, dphi0 = slowmode.boundary_values(p)
                alone.append(dispersion.gamma0_of_hierarchy(
                    phi0, dphi0, fastmode.ExpFastHierarchy((p,)))[0])
            single = [dispersion.gamma0_beta(x, p0) for x in c]
            assert all(type(v) is complex for v in single)
            vals = dispersion.gamma0_beta(c, p0)
            assert vals.shape == c.shape
            assert (vals.tobytes() == np.array(alone).tobytes()
                    == np.array(single).tobytes())
            assert dispersion.gamma0_beta(c.reshape(5, 13), p0).tobytes() == vals.tobytes()

    def test_newton_sends_three_points_and_matches_the_reference(self):
        # each Newton point goes with its two difference points as one
        # (3,) array, and the iterates and residuals are those of the
        # reference iteration, which sends the point alone
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        disk = dispersion.disk_beta(p0)
        shapes = []

        def g(c):
            shapes.append(np.shape(c))
            return dispersion.gamma0_beta(c, p0)

        root, trace = numerics.newton_root(g, disk.center, tol=1e-10)
        ref = newton_loop(lambda c: dispersion.gamma0_beta(c, p0), disk.center,
                          tol=1e-10)
        assert trace.converged and len(trace.iterates) > 2
        assert set(shapes) == {(3,)} and len(shapes) >= len(trace.iterates)
        assert (root, trace.iterates, trace.residuals) == ref[:3]

    def test_newton_starts_from_the_center(self):
        # Gamma0_beta is not analytic in c (one grid per point): its series
        # tail is far above the seed's bound
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        rep = dispersion.certify(p0, r3=0.5, tol=1e-10)
        assert rep.series_tail > 1e-6
        assert rep.newton.iterates[0] == rep.disk.center

    def test_certifies_in_contraction_regime(self):
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        rep = dispersion.certify(p0, r3=0.5, tol=1e-10)
        assert rep.winding == 1
        assert rep.certified
        assert rep.boundary_min_abs >= 0.5 / 2.0
        assert rep.c_root.imag > 0.0
        assert rep.variable == "c" and rep.c == rep.c_root
        assert dispersion.center_c(p0) == rep.disk.center

    def test_reference_gap_bound(self):
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        rep = dispersion.certify(p0, r3=0.5, tol=1e-10)
        a, nu0 = p0.alpha, p0.nu0
        bound = a ** nu0 + a ** (1.0 - nu0) * abs(math.log(a))
        assert rep.reference_gap_max <= 3.0 * bound

    def test_desk_scale_hierarchy_divergence_reports_winding_zero(self):
        with pytest.raises(WindingNotOne) as err:
            dispersion.certify(SpectralParams.beta_regime(1.0, 0.115, 1e-10),
                               tol=1e-10)
        assert err.value.winding == 0


class TestNewtonReach:
    def test_exact_gamma_walk_stops_past_the_reach(self, monkeypatch):
        # Gamma0 winds 0 at A = 3, eps = 1e-15, but the exact Gamma winds 1
        # on its disk.  Newton's first step on Gamma lands 1.62 radii out,
        # past the reach, so the walk ends there uncertified (without the
        # stop, four more iterations walk to 2.22 radii); the row's status
        # and its empty exact root do not depend on it
        reports = []
        find_root_certified = dispersion.find_root_certified

        def spy(*args, **kwargs):
            rep = find_root_certified(*args, **kwargs)
            reports.append(rep)
            return rep

        monkeypatch.setattr(dispersion, "find_root_certified", spy)
        cfg = cli.RunConfig(amplitude=3.0, eps_list=[1e-15], full_os=True, grid_n=400)
        row = cli.sweep_row(cfg, 1e-15)
        assert row["status"] == "winding=0" and row["winding"] == 0
        assert math.isnan(row["re_c_exact"]) and math.isnan(row["im_c_exact"])
        (rep,) = reports                    # Gamma0's count raised WindingNotOne
        assert rep.winding == 1 and not rep.certified
        iterates = rep.newton.iterates
        assert len(iterates) == 2 and rep.c_root == iterates[-1]
        reach = abs(iterates[-1] - rep.disk.center) / rep.disk.radius
        assert 1.6 < reach < 1.65
