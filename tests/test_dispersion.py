import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from tswave import dispersion
from tswave.errors import WindingNotOne
from tswave.numerics import Circle, newton_root, winding_samples
from tswave.params import SpectralParams


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
        # a scalar-only map, so every boundary point is one call; the root sits
        # near the boundary of the first disk, which forces refinement there
        p = SpectralParams.eighth(4.0, 1e-10)
        calls = []

        def g(h):
            h = complex(h)
            calls.append(h)
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

    def test_gamma0_center_value_shrinks_deep(self):
        vals = []
        for eps in (1e-24, 1e-26, 1e-28):
            p0 = SpectralParams.eighth(4.0, eps)
            c = p0.chat_to_c(dispersion.center_eighth(p0))
            vals.append(abs(dispersion.gamma0(c, p0)))
        assert vals[0] > vals[1] > vals[2]


class TestBetaRegime:
    def test_certifies_in_contraction_regime(self):
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        rep = dispersion.certify_beta(p0, r3=0.5)
        assert rep.winding == 1
        assert rep.certified
        assert rep.boundary_min_abs >= 0.5 / 2.0
        assert rep.c_root.imag > 0.0

    def test_reference_gap_bound(self):
        p0 = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        rep = dispersion.certify_beta(p0, r3=0.5)
        a, nu0 = p0.alpha, p0.nu0
        bound = a ** nu0 + a ** (1.0 - nu0) * abs(math.log(a))
        assert rep.reference_gap_max <= 3.0 * bound

    def test_desk_scale_hierarchy_divergence_reports_winding_zero(self):
        with pytest.raises(WindingNotOne) as err:
            dispersion.certify_beta(SpectralParams.beta_regime(1.0, 0.115, 1e-10))
        assert err.value.winding == 0
