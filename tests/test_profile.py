import math

import numpy as np
import pytest

from tswave.errors import StructureViolation, UnsupportedOrder
from tswave.profile import (DEFAULT_PROFILE, HartmannProfile, StructureConstants,
                            check_structure)


class TestEval:
    def test_wall_values(self):
        assert DEFAULT_PROFILE.eval("U", 0, 0.0) == 0.0
        assert DEFAULT_PROFILE.eval("U", 1, 0.0) == 1.0

    def test_second_derivative_at_log2(self):
        assert DEFAULT_PROFILE.eval("U", 2, math.log(2.0)) == pytest.approx(-0.5)

    def test_h_field(self):
        p = HartmannProfile(h_inf=1.5)
        assert p.eval("H", 0, 0.0) == pytest.approx(0.5)
        assert np.allclose(p.eval("H", 1, np.array([0.3, 1.0])),
                           p.eval("U", 1, np.array([0.3, 1.0])))

    def test_far_field(self):
        assert DEFAULT_PROFILE.eval("U", 0, 40.0) == pytest.approx(1.0, abs=1e-15)
        assert DEFAULT_PROFILE.eval("H", 0, 40.0) == pytest.approx(
            DEFAULT_PROFILE.h_inf, abs=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            DEFAULT_PROFILE.eval("U", 4, 1.0)
        with pytest.raises(UnsupportedOrder):
            DEFAULT_PROFILE.eval("H", 3, 1.0)

    def test_derivative_consistency(self):
        Y = np.linspace(0.1, 8.0, 30)
        h = 1e-6
        for which, kmax in (("U", 2), ("H", 1)):
            for k in range(kmax + 1):
                fd = (DEFAULT_PROFILE.eval(which, k, Y + h)
                      - DEFAULT_PROFILE.eval(which, k, Y - h)) / (2 * h)
                assert np.max(np.abs(fd - DEFAULT_PROFILE.eval(which, k + 1, Y))) < 1e-8

    def test_wake_exact_in_tail(self):
        assert DEFAULT_PROFILE.wake(45.0) == pytest.approx(math.exp(-45.0), rel=1e-12)
        # plain subtraction has already bottomed out there
        assert 1.0 - DEFAULT_PROFILE.eval("U", 0, 45.0) == 0.0


class TestStructure:
    def test_hartmann_unit_constants(self):
        report = check_structure(DEFAULT_PROFILE, StructureConstants(1, 1, 1, 1))
        assert report.ok
        # the monotonicity envelope is an exact equality for this profile
        assert report.margins["monotone_lower"][0] == pytest.approx(0.0, abs=1e-14)
        assert report.margins["monotone_upper"][0] == pytest.approx(0.0, abs=1e-14)
        assert report.margins["concavity"][0] >= -1e-14

    def test_third_derivative_ratio(self):
        report = check_structure(DEFAULT_PROFILE, StructureConstants())
        assert report.margins["ratio_d3u_d2u"][0] == pytest.approx(0.0, abs=1e-12)

    def test_violation_raises(self):
        with pytest.raises(StructureViolation):
            check_structure(DEFAULT_PROFILE, StructureConstants(1, 1, 1, sigma0=0.9))

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            check_structure(DEFAULT_PROFILE, n=50)

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            StructureConstants(s0=1.0, s1=2.0, s2=1.0)
        with pytest.raises(ValueError):
            StructureConstants(sigma0=-1.0)


class TestClosedFormPrimitives:
    def test_inv_square_primitive_derivative(self):
        chat = 0.07 + 0.01j
        prof = DEFAULT_PROFILE
        h = 1e-6
        for Y in (0.2, 0.9, 2.5):
            fd = (prof.inv_square_integral(Y + h, chat)
                  - prof.inv_square_integral(Y - h, chat)) / (2 * h)
            w = prof.eval("U", 0, Y) - chat
            assert fd == pytest.approx(1.0 / w**2, rel=1e-8)

    def test_corrector_integral_derivative(self):
        chat = 0.07 + 0.01j
        prof = DEFAULT_PROFILE
        h = 1e-6
        for Y in (0.3, 1.4, 3.0):
            fd = (prof.corrector_integral(Y + h, chat)
                  - prof.corrector_integral(Y - h, chat)) / (2 * h)
            w = prof.eval("U", 0, Y) - chat
            expect = prof.eval("U", 1, Y) * w * prof.inv_square_integral(Y, chat)
            assert fd == pytest.approx(expect, rel=1e-7)

    def test_corrector_integral_at_zero(self):
        assert DEFAULT_PROFILE.corrector_integral(0.0, 0.05 + 0.01j) == pytest.approx(0.0, abs=1e-14)
