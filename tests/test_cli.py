import json
import math

import numpy as np
import pytest

from tswave import cli, dispersion, osresolvent
from tswave.errors import GrowthOverflow
from tswave.params import SpectralParams


def fast_cfg(**kw):
    base = dict(regime="eighth", amplitude=2.0, eps_list=[1e-12], grid_n=700)
    base.update(kw)
    return cli.RunConfig(**base)


class TestRunConfig:
    def test_empty_eps_list_rejected(self):
        with pytest.raises(ValueError):
            cli.RunConfig(eps_list=[])

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            cli.RunConfig(eps_list=[1e-10, 1e-8])

    def test_beta_range(self):
        with pytest.raises(ValueError):
            cli.RunConfig(regime="beta", beta=0.125, eps_list=[1e-10])

    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            cli.RunConfig(eps_list=[1e-10], newton_tol=0.0)

    def test_params_builder(self):
        cfg = cli.RunConfig(regime="beta", amplitude=1.0, beta=0.115,
                            eps_list=[1e-10])
        p = cfg.params(1e-10)
        assert p.beta == 0.115 and not p.is_eighth


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nregime=eighth\namplitude=3.0\n"
                        "eps_list=1e-8,1e-10\ngrid_n=800\n")
        parser_args = type("Args", (), {})()
        parser_args.config = str(path)
        parser_args.amplitude_a = 2.0     # flag overrides file amplitude
        cfg = cli.build_config(parser_args)
        assert cfg.amplitude == 2.0
        assert cfg.eps_list == [1e-8, 1e-10]
        assert cfg.grid_n == 800

    @pytest.mark.parametrize("line", ["bogus=1", "picard_tol=1e-10", "iterate_tol=1e-8"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        args = type("Args", (), {"config": str(path)})()
        with pytest.raises(ValueError):
            cli.build_config(args)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    cfg = fast_cfg(out=str(tmp_path_factory.mktemp("sweep") / "out.csv"))
    rows, footer, text = cli.run_sweep(cfg)
    return cfg, rows, footer, text


class TestSweep:

    def test_row_contents(self, sweep):
        cfg, rows, footer, text = sweep
        row = rows[0]
        assert row["status"] == "ok"
        assert row["winding"] == 1
        assert row["im_c_app"] > 0.0
        assert row["growth_rate"] > 0.0
        assert math.isfinite(row["e1s_l2"])

    def test_deterministic_output(self, sweep):
        cfg, rows, footer, text = sweep
        _, _, text2 = cli.run_sweep(cfg)
        assert text2 == text

    def test_csv_schema(self, sweep):
        cfg, rows, footer, text = sweep
        header = text.splitlines()[0].split(",")
        assert header == cli.SWEEP_COLUMNS

    def test_failed_row_is_recorded_not_raised(self):
        cfg = fast_cfg(eps_list=[1e-8])
        rows = [cli.sweep_row(cfg, 1e-8)]
        assert rows[0]["status"] == "winding=0"
        assert rows[0]["winding"] == 0
        assert math.isfinite(rows[0]["min_gamma0_boundary"])
        assert math.isfinite(rows[0]["e1s_l2"])   # audit still runs

    def test_json_format(self):
        cfg = fast_cfg(fmt="json")
        rows, footer, text = cli.run_sweep(cfg)
        payload = json.loads(text)
        assert payload["rows"][0]["status"] == "ok"

    def test_footer_slopes(self):
        cfg = fast_cfg(eps_list=[1e-11, 1e-12])
        rows, footer, text = cli.run_sweep(cfg)
        assert "slope_e1s_l2" in footer
        assert "# slope_e1s_l2" in text

    def test_exit_codes(self, tmp_path, capsys):
        rc_ok = cli.main(["sweep", "--A", "2", "--eps", "1e-12",
                          "--grid-n", "700", "--out", str(tmp_path / "a.csv")])
        assert rc_ok == 0
        rc_bad = cli.main(["sweep", "--A", "2", "--eps", "1e-8",
                           "--grid-n", "700", "--out", str(tmp_path / "b.csv")])
        assert rc_bad == 1

    def test_worker_pool_matches_serial(self):
        cfg = fast_cfg(eps_list=[1e-11, 1e-12], jobs=2)
        rows_pool, _, text_pool = cli.run_sweep(cfg)
        cfg1 = fast_cfg(eps_list=[1e-11, 1e-12], jobs=1)
        _, _, text_serial = cli.run_sweep(cfg1)
        assert text_pool == text_serial


class TestOtherCommands:
    def test_root_command(self, capsys):
        rc = cli.main(["root", "--A", "2", "--eps", "1e-12"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert rc == 0
        assert payload[0]["certified"] is True
        assert payload[0]["winding"] == 1

    def test_validate_command(self, capsys):
        rc = cli.main(["validate", "--A", "2", "--eps", "1e-12"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["structure_ok"] is True

    def test_audit_command(self, capsys):
        rc = cli.main(["audit", "--A", "2", "--eps", "1e-12", "--grid-n", "700"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload[0]["tau1_measured"] > 0.0
        assert payload[0]["e3s_l2w"] > 0.0

    def test_airy_table(self, capsys):
        rc = cli.main(["airy-table", "--k", "0,1", "--re", "0:4:3",
                       "--im", "0:1:2"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "k,re_z,im_z,re_ai,im_ai,branch"
        assert any(line.endswith("series") for line in out[1:])


@pytest.fixture(scope="module")
def exported():
    p0 = SpectralParams.eighth(2.0, 1e-12)
    rep = dispersion.certify_eighth(p0)
    c = p0.chat_to_c(rep.c_root)
    bvp = osresolvent.build_bvp(p0, n_nodes=900)
    t_list = [0.0, 5e-4, 1e-3]
    rows, energies, text = cli.export_mode(c, p0, t_list, nx=12, ny=48,
                                           bvp=bvp)
    return p0, c, t_list, rows, energies


class TestExportMode:

    def test_energy_normalized_and_exponential(self, exported):
        p0, c, t_list, rows, energies = exported
        assert energies[0] == pytest.approx(1.0)
        rate = 2.0 * p0.alpha * c.imag / p0.sqrt_eps
        for t, e in zip(t_list, energies):
            assert e == pytest.approx(math.exp(rate * t), rel=1e-10)

    def test_magnetic_field_vanishes_at_wall(self, exported):
        p0, c, t_list, rows, energies = exported
        wall = [r for r in rows if r[2] == 0.0]
        hx_scale = max(abs(r[5]) for r in rows)
        assert max(abs(r[6]) for r in wall) <= 1e-12 * hx_scale

    def test_discrete_divergence_refines(self):
        p0 = SpectralParams.eighth(2.0, 1e-12)
        rep = dispersion.certify_eighth(p0)
        c = p0.chat_to_c(rep.c_root)
        bvp = osresolvent.build_bvp(p0, n_nodes=900)

        # the y lattice must resolve the viscous sub-layer (scale n^{-1/3}
        # in Y) for the finite-difference divergence to be meaningful
        y_span = 2.0 * p0.sqrt_eps

        def max_div(nx, ny):
            rows, _, _ = cli.export_mode(c, p0, [0.0], nx=nx, ny=ny, bvp=bvp,
                                         y_span=y_span)
            arr = np.array([r[:7] for r in rows])
            xs = np.unique(arr[:, 1])
            ys = np.unique(arr[:, 2])
            u = arr[:, 3].reshape(len(xs), len(ys))
            v = arr[:, 4].reshape(len(xs), len(ys))
            dx, dy = xs[1] - xs[0], ys[1] - ys[0]
            # x is periodic over the exported wavelength
            div = (np.roll(u, -1, 0) - np.roll(u, 1, 0))[:, 1:-1] / (2 * dx) \
                + (v[:, 2:] - v[:, :-2]) / (2 * dy)
            return np.max(np.abs(div)), np.max(np.abs(u))

        d1, scale = max_div(16, 400)
        d2, _ = max_div(32, 800)
        assert d2 < d1 / 2.0
        # the stream-function construction cancels the wave-scale derivatives
        wavenumber = p0.alpha / p0.sqrt_eps
        assert d1 < 0.05 * wavenumber * scale


def test_full_os_reports_exact_root_only_inside_disk(monkeypatch):
    # A = 3, eps = 1e-15: Gamma winds once on the Gamma0 disk, but Newton from
    # the center converges 2.22 radii outside it, so no exact root is certified
    results = []
    certify = cli.full_os_certification

    def recorded(*args):
        results.append(certify(*args))
        return results[-1]

    monkeypatch.setattr(cli, "full_os_certification", recorded)
    cfg = cli.RunConfig(amplitude=3.0, eps_list=[1e-15], grid_n=400, full_os=True)
    row = cli.sweep_row(cfg, 1e-15)
    gap_max, c_exact, winding = results[0]
    assert winding == 1 and c_exact is None
    for col in ("re_c_exact", "im_c_exact", "growth_rate"):
        assert math.isnan(row[col])
    # the maximum over the winding boundary samples only, not Newton's points
    assert row["gamma_gap_max"] == gap_max == pytest.approx(3.5271260754499196,
                                                           rel=1e-12)


def test_full_os_rows_independent_of_row_order():
    # Gamma's per-grid state is cached across rows; a row must not depend on
    # which rows ran before it, nor on whether its own state was cached
    osresolvent._grid_state.cache_clear()
    osresolvent._affine_operator.cache_clear()
    cfg = cli.RunConfig(amplitude=2.0, eps_list=[1e-11, 1e-12], grid_n=400,
                        full_os=True)
    _, _, text = cli.run_sweep(cfg)
    rows = [cli.sweep_row(cfg, eps) for eps in reversed(cfg.eps_list)][::-1]
    assert cli.render_report(rows, cli._regressions(rows), "csv") == text


def test_cli_error_exit(capsys):
    rc = cli.main(["sweep", "--A", "2", "--eps-list", "1e-8,1e-6"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("lattice", [["--nx", "0"], ["--ny", "0"], ["--nx", "-3"]])
def test_export_empty_lattice_is_an_error(capsys, lattice):
    rc = cli.main(["export-mode", "--A", "2", "--eps", "1e-12", "--grid-n", "400",
                   *lattice])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: export lattice needs nx >= 1 and ny >= 1")


def test_export_refuses_overflowing_time(capsys):
    # alpha Im c / sqrt(eps) is about 817 here: at t = 1 the carrier
    # e^{817} overflows, and this export used to write inf and nan cells
    rc = cli.main(["export-mode", "--A", "2", "--eps", "1e-13", "--t-list", "0,1",
                   "--nx", "2", "--ny", "2", "--grid-n", "400"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    p0 = SpectralParams.eighth(2.0, 1e-13)
    c = p0.chat_to_c(dispersion.certify_eighth(p0).c_root)
    exponent = p0.alpha * c.imag / p0.sqrt_eps
    assert err.startswith("error: export time t = 1.0: alpha Im c t / sqrt(eps) = "
                          f"{exponent:.6g} ")


def _export_oracle(t_list, rows, fmt):
    """The per-value writer: every cell through cli._fmt, t as given."""
    per_t = len(rows) // len(t_list)
    cells = [[cli._fmt(t_list[k // per_t])] + [cli._fmt(v) for v in row[1:]]
             for k, row in enumerate(rows)]
    header = "t,x,y,u,v,hx,hy,energy_t"
    if fmt == "json":
        return json.dumps({"columns": header.split(","), "rows": cells},
                          indent=None) + "\n"
    return "\n".join([header] + [",".join(r) for r in cells]) + "\n"


@pytest.fixture(scope="module")
def export_point():
    p0 = SpectralParams.eighth(2.0, 1e-8)
    c = p0.chat_to_c(dispersion.center_eighth(p0))
    return p0, c, osresolvent.build_bvp(p0, n_nodes=400)


class TestExportWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("t_list, nx, ny", [
        ([0.0, 2.5e-4, 1e-3], 6, 9),     # float times
        ([0, 1], 4, 5),                  # int times
        ([0.0, 1e-3], 5, 1),             # one y
        ([0.0, 1e-3], 1, 7),             # one x
    ])
    def test_text_matches_per_value_writer(self, export_point, t_list, nx, ny,
                                           fmt):
        p0, c, bvp = export_point
        rows, energies, text = cli.export_mode(c, p0, t_list, nx, ny, bvp=bvp,
                                               fmt=fmt)
        assert rows.shape == (len(t_list) * nx * ny, 8)
        lattice = rows.reshape(len(t_list), nx, ny, 8)
        assert np.array_equal(lattice[:, 0, 0, 0], np.array(t_list, dtype=float))
        assert np.array_equal(lattice[:, 0, 0, 7], energies)
        assert np.all(np.isfinite(rows))
        assert text == _export_oracle(t_list, rows, fmt)

    def test_growth_bound_on_export_times(self, export_point):
        p0, c, bvp = export_point
        rate = p0.alpha * c.imag / p0.sqrt_eps
        limit = math.log(np.finfo(float).max) / 8.0
        inside = [-0.99 * limit / rate, 0.0, 0.99 * limit / rate]
        rows, energies, _ = cli.export_mode(c, p0, inside, 3, 4, bvp=bvp)
        assert np.all(np.isfinite(rows))
        assert energies[2] / energies[0] == pytest.approx(
            math.exp(4.0 * 0.99 * limit), rel=1e-9)
        for t in (1.01 * limit / rate, -1.01 * limit / rate):
            with pytest.raises(GrowthOverflow) as err:
                cli.export_mode(c, p0, [0.0, t], 3, 4, bvp=bvp)
            assert err.value.t == t
            assert err.value.exponent == pytest.approx(rate * t, rel=1e-12)

    def test_fmt_is_percent_17g(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.8e308]
        for x in values.tolist() + specials:
            assert cli._fmt(x) == "%.17g" % x
