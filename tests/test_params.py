import math

import numpy as np
import pytest

from tswave.errors import RegimeMismatch, UnsupportedOrder
from tswave.params import ModeFunction, SpectralParams


class TestSpectralParams:
    def test_eighth_couplings(self):
        p = SpectralParams.eighth(2.0, 1e-10)
        assert p.alpha == pytest.approx(2.0 * 1e-10 ** 0.125)
        assert p.n == pytest.approx(p.alpha / math.sqrt(1e-10))
        assert p.nu0 == 0.0
        assert p.is_eighth

    def test_beta_couplings(self):
        p = SpectralParams.beta_regime(1.0, 0.115, 1e-10)
        assert p.nu0 == pytest.approx((1 - 8 * 0.115) / (4 * 0.115))
        assert not p.is_eighth

    def test_chat_shift(self):
        p = SpectralParams.eighth(2.0, 1e-10, c=0.1 + 0.01j)
        assert p.c_hat == pytest.approx(p.c + 1j / p.n)
        assert p.c_hat.imag > p.c.imag > 0.0
        assert p.chat_to_c(p.c_hat) == pytest.approx(p.c)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralParams(eps=2.0, amplitude=1.0)
        for amplitude in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="amplitude must be positive and finite"):
                SpectralParams(eps=1e-8, amplitude=amplitude)
        with pytest.raises(ValueError):
            SpectralParams(eps=1e-8, amplitude=1.0, beta=0.2)
        with pytest.raises(ValueError):
            SpectralParams(eps=1e-8, amplitude=1.0, beta=0.1)  # below 3/28
        with pytest.raises(ValueError):
            SpectralParams.beta_regime(1.0, 0.125, 1e-8)

    def test_im_chat_must_be_positive(self):
        p = SpectralParams.eighth(2.0, 1e-10)
        with pytest.raises(ValueError):
            p.with_c(0.1 - 1.0j)

    def test_varpi_regime_and_branch(self):
        p = SpectralParams.beta_regime(1.0, 0.115, 1e-10).with_c(0.1 + 0.03j)
        w = p.varpi
        assert w.real > 0.0
        assert w * w == pytest.approx(-1j * p.n * p.c)
        with pytest.raises(RegimeMismatch):
            _ = SpectralParams.eighth(2.0, 1e-10, c=0.1 + 0.01j).varpi

    def test_sublayer_scales(self):
        p = SpectralParams.eighth(2.0, 1e-10, c=0.1 + 0.01j)
        assert p.delta ** 3 == pytest.approx(-1j / p.n)
        assert p.z0 == pytest.approx(-p.c_hat / p.delta)

    def test_far_field_ends_every_default_grid(self):
        from oracles import default_magnetic_grid
        from tswave import dispersion, fastmode, osresolvent
        assert SpectralParams.eighth(2.0, 1e-4).far_field == 40.0
        p = SpectralParams.eighth(2.0, 1e-12)
        assert p.far_field == 8.0 / p.alpha
        pb = SpectralParams.beta_regime(1.0, 0.1075, 1e-24)
        pb = pb.with_c(dispersion.center_beta(pb))
        # np.sinh and math.sinh of the grid map's end may differ by an ulp
        ends = [(osresolvent.build_bvp(p, n_nodes=200).grid[-1], p.far_field),
                (default_magnetic_grid(p)[-1], p.far_field),
                (fastmode.ExpFastHierarchy((pb,), n_terms=1).grid[0, -1], pb.far_field)]
        for end, far in ends:
            assert end == pytest.approx(far, rel=1e-15)

    def test_guard_warnings(self):
        p = SpectralParams.eighth(4.0, 1e-8).with_c(0.4 + 0.02j)
        warnings = p.guard_warnings()
        assert any("gamma2" in w for w in warnings)
        assert SpectralParams.eighth(2.0, 1e-12).with_c(
            0.07 + 0.005j).guard_warnings() == []


class TestModeFunction:
    def test_eval_and_order_check(self):
        f = ModeFunction(max_order=1, evaluator=lambda o, Y: (1j ** o) * np.exp(-Y))
        assert f(0.0) == pytest.approx(1.0)
        assert f.eval(1, np.array([0.0, 1.0]))[1] == pytest.approx(1j * math.exp(-1.0))
        with pytest.raises(UnsupportedOrder):
            f.eval(2, 0.0)
