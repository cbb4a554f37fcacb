import math

import numpy as np
import pytest

from tswave.errors import RegimeMismatch, UnsupportedOrder
from tswave.numerics import sup_exp_norm
from tswave.params import ModeFunction, SpectralParams, mode_from_grid


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
        with pytest.raises(ValueError):
            SpectralParams(eps=1e-8, amplitude=-1.0)
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

    def test_decay_envelope(self):
        f = ModeFunction(max_order=0, evaluator=lambda o, Y: np.exp(-0.5 * Y),
                         decay_rate=0.5)
        grid = np.linspace(0.0, 30.0, 200)
        assert sup_exp_norm(f.eval(0, grid), grid, f.decay_rate) == pytest.approx(1.0)

    def test_mode_from_grid_clamps_tail(self):
        grid = np.linspace(0.0, 10.0, 300)
        f = mode_from_grid(grid, [np.exp(-grid)], decay_rate=1.0)
        assert f(12.0) == 0.0
        assert f(3.0) == pytest.approx(math.exp(-3.0), rel=1e-8)

    def test_mode_from_grid_fits_each_order_on_first_eval(self, monkeypatch):
        from scipy import interpolate

        grid = np.linspace(0.0, 10.0, 300)
        vals = [np.exp(-(1.0 + 0.5j) * k * grid) for k in range(1, 4)]
        eager = [(interpolate.CubicSpline(grid, v.real),
                  interpolate.CubicSpline(grid, v.imag)) for v in vals]
        fits = []
        spline = interpolate.CubicSpline

        def counted(x, y):
            fits.append(1)
            return spline(x, y)

        monkeypatch.setattr(interpolate, "CubicSpline", counted)
        grid_buf, val_bufs = grid.copy(), [v.copy() for v in vals]
        f = mode_from_grid(grid_buf, val_bufs, decay_rate=1.0)
        grid_buf[:] = 0.0       # later changes to the caller's buffers
        for buf in val_bufs:
            buf[:] = 0.0
        assert fits == []
        Y = np.linspace(0.0, 12.0, 97)
        for order in (2, 0, 2, 1):
            re, im = eager[order]
            expected = np.where(Y <= grid[-1], re(Y) + 1j * im(Y), 0.0)
            assert np.array_equal(f.eval(order, Y), expected)
        assert len(fits) == 6
