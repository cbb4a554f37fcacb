import math

import numpy as np
import pytest

from tswave import airy, dispersion, osresolvent
from oracles import Ray, Segment, quad_segment, series_loop
from tswave.errors import SectorViolation, UnsupportedOrder
from tswave.params import SpectralParams

EXACT_PRIMITIVES = {
    1: -1.0 / 3.0,                 # integral of Ai over the half line is 1/3
    2: -airy.AIP_ZERO,
    3: -airy.AI_ZERO / 2.0,
}


def ai_contour(k, z, rel_tol=1e-12):
    """Ai(k, z) by quadrature over the defining contour (two rays at arg
    +-2pi/3 joined by the unit-circle arc through -1): the oracle of the
    series and asymptotic branches.

    Accurate wherever the integrand's peak does not dwarf the result, i.e. at
    moderate |z| and in directions where Ai(k, z) is not exponentially small.
    """
    z = complex(z)

    def integrand(t):
        t = np.asarray(t, dtype=complex)
        return t ** (-k) * np.exp(z * t - t**3 / 3.0)

    up = np.exp(2j * math.pi / 3.0)
    dn = np.exp(-2j * math.pi / 3.0)
    leg_in = quad_segment(integrand, Ray(dn, dn), rel_tol=rel_tol)

    def arc(theta):
        theta = np.asarray(theta, dtype=complex)
        t = np.exp(1j * theta)
        return integrand(t) * 1j * t

    # theta runs from -2pi/3 down through -pi to -4pi/3 (= +2pi/3)
    leg_arc = -quad_segment(arc, Segment(-4.0 * math.pi / 3.0, -2.0 * math.pi / 3.0),
                            rel_tol=rel_tol)
    leg_out = quad_segment(integrand, Ray(up, up), rel_tol=rel_tol)
    # the ray quadratures already carry the complex measure; the inbound leg is
    # traversed toward the unit circle, hence the sign flip
    total = -leg_in + leg_arc + leg_out
    return total / (2j * math.pi)


def decay_cone_points(count, rng_seed=3):
    """Annulus points 8 <= |z| <= 19.5 where Ai is exponentially small, so the
    leading-term branch satisfies the absolute ODE-residual tolerance."""
    rng = np.random.default_rng(rng_seed)
    pts = []
    while len(pts) < count:
        r = rng.uniform(8.2, 19.5)
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        if r ** 1.5 * math.cos(1.5 * th) >= 30.0:
            pts.append(r * np.exp(1j * th))
    return np.array(pts)


class TestConstantsAndOracle:
    def test_value_at_zero(self):
        assert airy.ai_k(0, 0.0) == pytest.approx(0.3550280538878172, abs=1e-14)

    def test_contour_oracle_at_zero(self):
        assert ai_contour(0, 0.0) == pytest.approx(airy.AI_ZERO, abs=5e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_primitive_constants_match_closed_forms(self, k):
        consts = airy.primitive_constants()
        assert consts[k] == EXACT_PRIMITIVES[k]
        assert consts[k] == pytest.approx(ai_contour(k, 0.0), abs=2e-12)

    def test_mpmath_oracle_near_zero(self):
        # Ai(k, z) = sum_{j<k} Ai(k - j, 0) z^j / j! plus the k-fold integral
        # from 0, which mpmath gives as airyai(z, derivative=-k)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = {0: mpmath.airyai(0), 1: mpmath.mpf(-1) / 3,
                     2: -mpmath.airyai(0, derivative=1), 3: -mpmath.airyai(0) / 2}
            r = np.concatenate([[0.0, 1e-3], np.linspace(0.05, 1.0, 12)])
            th = np.linspace(-airy.SECTOR, airy.SECTOR, 25)
            z = (r[:, None] * np.exp(1j * th[None, :])).ravel()
            worst = 0.0
            for k in range(4):
                vals = airy.ai_k(k, z)
                for zi, v in zip(z, vals):
                    zm = mpmath.mpc(zi.real, zi.imag)
                    ref = mpmath.airyai(zm, derivative=-k) + sum(
                        exact[k - j] * zm**j / mpmath.factorial(j) for j in range(k))
                    err = abs(mpmath.mpc(v.real, v.imag) - ref) / abs(ref)
                    worst = max(worst, float(err))
        assert worst <= 2e-15, worst

    @pytest.mark.parametrize("z", [1.3 + 0.8j, -2.0 + 1.5j, 4.0 - 1.5j])
    def test_series_vs_contour_oracle(self, z):
        for k in range(4):
            ref = ai_contour(k, z)
            assert airy.ai_k(k, z) == pytest.approx(ref, rel=2e-11)

    def test_real_axis_is_real(self):
        for z in (0.5, 2.0, 6.5):
            assert abs(airy.ai_k(0, z).imag) < 1e-14


class TestAsymptotic:
    def test_leading_term_k0(self):
        expect = 1.0 / (2.0 * math.sqrt(math.pi)) * 25.0 ** -0.25 * math.exp(-250.0 / 3.0)
        assert airy.ai_k(0, 25.0) == pytest.approx(expect, rel=1e-13)

    def test_sign_flip_k1(self):
        expect = -1.0 / (2.0 * math.sqrt(math.pi)) * 25.0 ** -0.75 * math.exp(-250.0 / 3.0)
        assert airy.ai_k(1, 25.0) == pytest.approx(expect, rel=1e-13)

    def test_k2_against_contour_oracle(self):
        # |z| = 12, arg z = -5pi/12: growing direction, the oracle is reliable.
        # The true leading-term gap for the second primitive is
        # (101/48)|z|^{-3/2} + O(|z|^{-3}), so the envelope constant is 3.
        z = 12.0 * np.exp(-5j * math.pi / 12.0)
        ref = ai_contour(2, z)
        rel = abs(airy.ai_k(2, z) - ref) / abs(ref)
        assert rel <= 3.0 * 12.0 ** -1.5
        assert rel >= 1.5 * 12.0 ** -1.5  # the gap is genuinely first order


class TestSector:
    def test_violation_raises(self):
        with pytest.raises(SectorViolation):
            airy.ai_k(0, -5.0 + 0.1j)
        with pytest.raises(SectorViolation):
            airy.ai_k(1, 20.0 * np.exp(1j * (5.0 * math.pi / 6.0 + 0.01)))

    def test_zero_is_inside_with_any_signed_zero_parts(self):
        # np.angle gives pi at -0.0 + 0j, yet z = 0 lies in every sector
        for z in (complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)):
            assert airy.ai_k(0, z) == airy.ai_k(0, 0.0)
            assert np.array_equal(airy.ai_k((0, 3), np.array([z, 1.0])),
                                  airy.ai_k((0, 3), np.array([0.0, 1.0])))
        with pytest.raises(SectorViolation):
            airy.ai_k(0, np.array([complex(-0.0, 0.0), -1.0 + 0.1j]))

    def test_near_edge_allowed(self):
        # certification contours at large amplitude approach the edge to
        # within ~1e-2 radians; evaluation must remain available there
        z = 3.0 * np.exp(-1j * (5.0 * math.pi / 6.0 - 0.012))
        assert np.isfinite(airy.ai_k(2, z))

    def test_bad_order(self):
        with pytest.raises(UnsupportedOrder):
            airy.ai_k(4, 1.0)


class TestInvariants:
    def test_ode_residual_series_region(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0.4, 7.5, 80)
        th = rng.uniform(-5 * math.pi / 6 + 0.05, 5 * math.pi / 6 - 0.05, 80)
        z = r * np.exp(1j * th)
        # trapezoid differentiation on a circle: exact for the truncated
        # Taylor series, no h^-2 roundoff amplification
        rad = 0.3
        ring = np.exp(2j * math.pi * np.arange(32) / 32)
        samples = airy._series(0, z[:, None] + rad * ring[None, :])
        d2 = 2.0 * np.mean(samples * ring[None, :] ** -2, axis=1) / rad**2
        resid = np.abs(d2 - z * airy.ai_k(0, z))
        assert np.all(resid <= 1e-8 * (1.0 + np.abs(z * airy.ai_k(0, z))))

    def test_primitive_chain(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0.3, 4.0, 40)
        th = rng.uniform(-2.3, 2.3, 40)
        z = r * np.exp(1j * th)
        h = 1e-5
        for k in (1, 2, 3):
            fd = (airy._series(k, z + h) - airy._series(k, z - h)) / (2.0 * h)
            assert np.max(np.abs(fd - airy._series(k - 1, z))) <= 1e-7

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_branch_overlap(self, k):
        # growing directions keep the series numerically meaningful across
        # the whole overlap annulus
        rng = np.random.default_rng(2 + k)
        r = rng.uniform(8.0, 16.0, 30)
        th = np.sign(rng.standard_normal(30)) * rng.uniform(1.45, 2.55, 30)
        z = r * np.exp(1j * th)
        series = airy._series(k, z)
        asym = airy._asymptotic(k, z)
        rel = np.abs(series - asym) / np.abs(series)
        assert np.all(rel <= 3.0 * np.abs(z) ** -1.5)

    def test_branch_overlap_k3_envelope(self):
        # the third primitive's first asymptotic correction is (185/48) z^{-3/2},
        # outside the 3 z^{-3/2} envelope of the lower orders
        rng = np.random.default_rng(9)
        r = rng.uniform(9.0, 16.0, 24)
        th = np.sign(rng.standard_normal(24)) * rng.uniform(1.45, 2.55, 24)
        z = r * np.exp(1j * th)
        rel = np.abs(airy._series(3, z) - airy._asymptotic(3, z)) / np.abs(airy._series(3, z))
        assert np.all(rel <= 5.0 * np.abs(z) ** -1.5)
        assert np.median(rel * np.abs(z) ** 1.5) > 3.0

    def test_decay_cone_residual(self):
        z = decay_cone_points(25)
        vals = airy._asymptotic(0, z)
        rad = 0.3
        ring = np.exp(2j * math.pi * np.arange(32) / 32)
        samples = airy._asymptotic(0, z[:, None] + rad * ring[None, :])
        d2 = 2.0 * np.mean(samples * ring[None, :] ** -2, axis=1) / rad**2
        assert np.all(np.abs(d2 - z * vals) <= 1e-8 * (1.0 + np.abs(z * vals)))

    def test_series_value_independent_of_other_points(self):
        # Ai(3, z) = -1291.7 + 0.09i here: terms far below the stopping
        # tolerance still move the imaginary part if the series runs on for
        # a larger |z| in the same array
        z = -4.798228652387986 - 5.096522786591397j
        pair = airy.ai_k(3, np.array([z, 7.9j]))
        assert pair[0] == airy.ai_k(3, z)
        assert pair[1] == airy.ai_k(3, 7.9j)
        for k in (0, 1, 2):
            assert airy._series(k, np.array([z, 7.9j]))[0] == airy._series(k, np.array([z]))[0]


def series_one_order(k, z, tol=1e-18, max_terms=420):
    """Per-order Maclaurin oracle for k in 0..3: the series of ``airy._series``
    run on one order at a time.  Returns the values and, per point, the m of
    the last term taken."""
    z = np.asarray(z, dtype=complex)
    c1, c2 = airy.AI_ZERO, -airy.AIP_ZERO
    z3 = z**3
    acc = np.zeros_like(z)
    consts = airy.primitive_constants()
    fact = 1.0
    for j in range(k):
        acc = acc + consts[k - j] * z**j / fact
        fact *= (j + 1)
    tf = c1 * z**k / math.factorial(k)
    tg = -c2 * z ** (k + 1) / math.factorial(k + 1)
    acc = acc + tf + tg
    out, stop = np.empty_like(acc), np.full(acc.shape, max_terms - 1)
    live = np.arange(acc.size)
    for m in range(1, max_terms):
        tf = tf * (3 * m - 2) * z3 / ((3 * m + k - 2) * (3 * m + k - 1) * (3 * m + k))
        tg = tg * (3 * m - 1) * z3 / ((3 * m + k - 1) * (3 * m + k) * (3 * m + k + 1))
        acc = acc + tf + tg
        if m > 8:
            done = np.abs(tf) + np.abs(tg) <= tol * np.abs(acc)
            out[live[done]], stop[live[done]] = acc[done], m
            keep = ~done
            live, acc, tf, tg, z3 = live[keep], acc[keep], tf[keep], tg[keep], z3[keep]
            if not live.size:
                break
    out[live] = acc
    return out, stop


def asymptotic_one_order(k, z):
    """The leading asymptotic term of one order, each order on its own."""
    z = np.asarray(z, dtype=complex)
    lz = np.log(z)
    expo = -(1.0 + 2.0 * k) / 4.0 * lz - (2.0 / 3.0) * np.exp(1.5 * lz)
    return (-1.0) ** k / (2.0 * math.sqrt(math.pi)) * np.exp(expo)


class TestStackedOrders:
    @staticmethod
    def points():
        rng = np.random.default_rng(11)
        z = 8.0 * np.sqrt(rng.random(600)) * np.exp(2j * math.pi * rng.random(600))
        seam = np.nextafter(airy.M_THRESHOLD, 0.0) * np.exp(
            1j * np.linspace(-airy.SECTOR, airy.SECTOR, 41))
        return np.concatenate([z, seam, [0.0, 1e-3, -2.5, 3.0 + 4.0j]])

    def test_stacked_series_equals_each_order_bit_for_bit(self):
        z = self.points()
        block = airy._series((0, 1, 2, 3), z)
        assert block.shape == (4, z.size)
        for k in range(4):
            ref, stop = series_one_order(k, z)
            assert np.unique(stop).size > 5      # points stop at different m
            assert np.array_equal(block[k].view(float), ref.view(float))
            assert np.array_equal(airy._series(k, z).view(float), ref.view(float))
        for orders in ((1, 2), (3, 0), (2,)):
            sub = airy._series(orders, z)
            for row, k in zip(sub, orders):
                assert np.array_equal(row.view(float), block[k].view(float))
        # alone, a point takes the same terms in the same arithmetic
        for i in range(0, z.size, 23):
            one = airy._series((0, 1, 2, 3), z[i:i + 1])
            assert np.array_equal(one.view(float), block[:, i:i + 1].view(float))
            for k in range(4):
                one = airy._series(k, z[i:i + 1])
                assert np.array_equal(one.view(float), block[k, i:i + 1].view(float))

    def test_stacked_asymptotic_equals_each_order_bit_for_bit(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(8.0, 30.0, 300) * np.exp(1j * rng.uniform(-airy.SECTOR, airy.SECTOR, 300))
        block = airy._asymptotic((0, 1, 2, 3), z)
        for k in range(4):
            ref = asymptotic_one_order(k, z)
            assert np.array_equal(block[k].view(float), ref.view(float))
            assert np.array_equal(airy._asymptotic(k, z).view(float), ref.view(float))

    def test_stacked_ai_k_equals_single_orders(self):
        z = self.points()
        z = np.concatenate([z[np.abs(np.angle(z)) <= airy.SECTOR],
                            10.0 * np.exp(1j * np.linspace(-2.5, 2.5, 9))])
        block = airy.ai_k((0, 1, 2, 3), z)
        for k in range(4):
            assert np.array_equal(block[k].view(float), airy.ai_k(k, z).view(float))
        pair = airy.ai_k((1, 2), complex(z[3]))
        assert pair.shape == (2,)
        assert pair[1] == airy.ai_k(2, complex(z[3]))

    def test_stacked_ai_k_checks_sector_and_orders(self):
        with pytest.raises(SectorViolation):
            airy.ai_k((1, 2), np.array([1.0, -1.0 + 0.1j]))
        with pytest.raises(SectorViolation):
            airy.ai_k((0, 1, 2, 3), -1.0)
        with pytest.raises(UnsupportedOrder):
            airy.ai_k((1, 4), 1.0)


class TestBlockedRecurrence:
    """``_series`` checks its stopping rule once per block of steps on a
    stacked recurrence; ``oracles.series_loop`` checks it after every term on
    separate f- and g-part arrays.  Every value must agree bit for bit."""

    @staticmethod
    def points():
        rng = np.random.default_rng(18)
        n = 20000
        z = 8.0 * np.sqrt(rng.random(n)) * np.exp(
            1j * rng.uniform(-airy.SECTOR, airy.SECTOR, n))
        # the series points of the fast-mode grid blocks (Y/delta + z0 below
        # the seam) at the disk centers of A = 2, 3, 4
        blocks = []
        for A, eps in ((2.0, 1e-12), (3.0, 1e-24), (4.0, 1e-26)):
            p0 = SpectralParams.eighth(A, eps)
            p = p0.with_c(dispersion.center_c(p0))
            zg = osresolvent.build_bvp(p).grid / p.delta + p.z0
            blocks.append(zg[np.abs(zg) < airy.M_THRESHOLD])
        assert all(b.size > 40 for b in blocks)
        return np.concatenate([z, *blocks])

    @pytest.mark.parametrize("k", [(0, 1, 2, 3), (1, 2), 0, 1, 2, 3])
    def test_matches_loop_oracle_bit_for_bit(self, k):
        z = self.points()
        assert np.array_equal(airy._series(k, z).view(float),
                              series_loop(k, z).view(float))
