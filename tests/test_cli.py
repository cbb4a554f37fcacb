import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tswave import cli, dispersion, osresolvent
from tswave.errors import GrowthOverflow, NonConvergence, WindingNotOne, ZeroOnContour
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
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
                cli.RunConfig(eps_list=[1e-10], newton_tol=tol)

    def test_params_builder(self):
        cfg = cli.RunConfig(regime="beta", amplitude=1.0, beta=0.115,
                            eps_list=[1e-10])
        p = cfg.params(1e-10)
        assert p.beta == 0.115 and not p.is_eighth

    def test_beta_regime_fills_in_only_a_missing_beta(self, tmp_path, capsys):
        assert cli.build_config(type("Args", (), {"M": 1.0})()).beta == 0.115
        # an explicit beta = 1/8 lies outside (3/28, 1/8) and is refused, from
        # a flag or from a config file, instead of running at 0.115
        rc = cli.main(["root", "--regime", "beta", "--M", "1", "--beta", "0.125",
                       "--eps", "1e-24"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: beta regime needs beta in (3/28, 1/8)\n"
        path = tmp_path / "run.cfg"
        path.write_text("regime=beta\nbeta=0.125\n")
        with pytest.raises(ValueError, match=r"needs beta in \(3/28, 1/8\)"):
            cli.build_config(type("Args", (), {"command": "root", "config": str(path)})())

    def test_default_beta_follows_the_regime(self):
        # the default used to be 1/8 in both regimes, which the beta regime
        # refuses: only the command line filled in 0.115
        assert cli.RunConfig(regime="beta", amplitude=1.0).beta == 0.115
        cfg = cli.RunConfig()
        assert cfg.beta == 0.125 and cfg.params(1e-12).is_eighth

    def test_amplitude_flags_exclude_each_other(self, capsys):
        # with both flags the beta regime's M used to stand in for the
        # eps^{1/8} amplitude A, and the root was certified at A = 2
        rc = cli.main(["root", "--A", "3", "--M", "2", "--eps", "1e-15"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: --M is the beta regime's amplitude, but the regime is eighth\n"

    @pytest.mark.parametrize("argv, message", [
        # used to certify the eps^{1/8} root at A = 2, the bytes of --A 2
        (["root", "--regime", "eighth", "--M", "2", "--eps", "1e-12"],
         "--M is the beta regime's amplitude, but the regime is eighth"),
        (["root", "--regime", "beta", "--A", "2", "--eps", "1e-24"],
         "--A is the eighth regime's amplitude, but the regime is beta"),
    ])
    def test_regime_must_match_amplitude_flag(self, capsys, tmp_path, argv, message):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: {message}\n"
        # a regime from a config file is held to the same rule
        path = tmp_path / "run.cfg"
        path.write_text(f"regime={argv[2]}\n")
        rc = cli.main([argv[0], "--config", str(path), *argv[3:]])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["root", "--A", "2", "--beta", "0.11", "--eps", "1e-12"],
         "beta applies to the beta regime only (--M)"),
        (["root", "--A", "2", "--r3", "0.9", "--eps", "1e-12"],
         "r3 applies to the beta regime only (--M)"),
        (["sweep", "--A", "2", "--eps", "1e-12", "--jobs", "-2"],
         "jobs must be at least 1, got -2"),
    ])
    def test_ignored_inputs_are_refused(self, capsys, argv, message):
        # each of these used to run as if it were absent, and exit 0
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_ignored_config_keys_are_refused(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key, val in (("beta", "0.11"), ("r3", "0.4"), ("jobs", "0")):
            path.write_text(f"regime=eighth\n{key}={val}\n")
            with pytest.raises(ValueError, match=key):
                cli.build_config(type("Args", (), {"command": "sweep",
                                                   "config": str(path)})())
        # RunConfig's defaults, and r3 in the beta regime, still pass
        assert cli.build_config(type("Args", (), {"A": 2.0})()).r3 == 0.5
        cfg = cli.build_config(type("Args", (), {"M": 1.0, "r3": 0.4})())
        assert cfg.r3 == 0.4 and cfg.beta == 0.115


# The keys each subcommand's handler reads, written out here rather than
# taken from cli: every other (subcommand, key) pair is refused, as a flag
# and as a config key
_COMMON = ("regime", "amplitude", "beta", "eps_list", "out")
_CERTIFYING = ("theta", "r3", "newton_tol", "init_samples")
_READ = {
    "sweep": (*_COMMON, *_CERTIFYING, "grid_n", "y_max", "fmt", "full_os", "jobs"),
    "root": (*_COMMON, *_CERTIFYING),
    "audit": (*_COMMON, "grid_n", "y_max"),
    "validate": _COMMON,
    "export-mode": (*_COMMON, *_CERTIFYING, "grid_n", "y_max", "fmt", "full_os"),
}
# per key: a flag with its value (None: config file only), a config value
_VALUES = {
    "regime": ("--regime eighth", "eighth"), "amplitude": ("--A 2", "2"),
    "beta": ("--beta 0.11", "0.11"), "eps_list": ("--eps 1e-12", "1e-12"),
    "out": ("--out report.csv", "report.csv"), "theta": ("--theta 0.3", "0.3"),
    "r3": ("--r3 0.4", "0.4"), "newton_tol": (None, "5"),
    "init_samples": (None, "3"), "grid_n": ("--grid-n 3", "3"),
    "y_max": ("--ymax 1", "1"), "fmt": ("--format csv", "csv"),
    "full_os": ("--full-os", "1"), "jobs": ("--jobs 4", "4"),
}
# the keys that one regime reads, and the refusal in the other
_REGIME_ONLY = {
    "beta": "beta applies to the beta regime only (--M)",
    "r3": "r3 applies to the beta regime only (--M)",
    "theta": "theta applies to the eighth regime only (--A)",
}
_UNREAD = [(cmd, key) for cmd in _READ for key in _VALUES if key not in _READ[cmd]]


def _regime_argv(key, own=True):
    """Amplitude and eps of the regime that reads ``key`` (or, with
    ``own=False``, of the other one)."""
    beta = (key in ("beta", "r3")) == own
    return ["--M", "1", "--eps", "1e-24"] if beta else ["--A", "2", "--eps", "1e-12"]


class TestSubcommandOptions:
    @pytest.mark.parametrize("command, flag", [
        (cmd, _VALUES[key][0]) for cmd, key in _UNREAD if _VALUES[key][0]])
    def test_unread_flag_is_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--A", "2", "--eps", "1e-12", *flag.split()])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")

    @pytest.mark.parametrize("command, key", _UNREAD, ids=[
        f"{cmd}-{_VALUES[key][0] or key}" for cmd, key in _UNREAD])
    def test_unread_config_key_is_refused(self, capsys, tmp_path, command, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={_VALUES[key][1]}\n")
        rc = cli.main([command, *_regime_argv(key), "--config", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: unrecognized config key {key!r}\n"

    @pytest.mark.parametrize("command, key", [
        (cmd, key) for cmd in _READ for key in _REGIME_ONLY if key in _READ[cmd]])
    def test_regime_only_key_is_refused_in_the_other_regime(self, capsys, tmp_path,
                                                            command, key):
        flag, value = _VALUES[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        for extra in (flag.split(), ["--config", str(path)]):
            rc = cli.main([command, *_regime_argv(key, own=False), *extra])
            out, err = capsys.readouterr()
            assert rc == 2 and out == ""
            assert err == f"error: {_REGIME_ONLY[key]}\n"

    def test_read_options_still_pass(self, tmp_path, monkeypatch):
        # the options a handler reads, as flags and as config keys
        path = tmp_path / "run.cfg"
        path.write_text("grid_n=400\nfmt=json\nfull_os=1\njobs=2\n")
        args = type("Args", (), {"command": "sweep", "config": str(path), "ymax": 30.0})()
        cfg = cli.build_config(args)
        assert (cfg.grid_n, cfg.fmt, cfg.full_os, cfg.jobs, cfg.y_max) == (
            400, "json", True, 2, 30.0)
        path.write_text("grid_n=400\n")
        args = type("Args", (), {"command": "audit", "config": str(path)})()
        assert cli.build_config(args).grid_n == 400
        # every pair the handlers read reaches the handler, which here only
        # builds its config; _VALUES holds every RunConfig key
        assert set(_VALUES) == {f.name for f in dataclasses.fields(cli.RunConfig)}

        def build_only(args):
            cli.build_config(args)
            return 0

        for name in ("sweep", "root", "audit", "validate", "export_mode"):
            monkeypatch.setattr(cli, f"cmd_{name}", build_only)
        # RunConfig refuses fewer than 16 grid nodes or winding samples; the
        # refusal tests above need only a flag or key the handler does not read
        values = {**_VALUES, "grid_n": ("--grid-n 300", "300"),
                  "init_samples": (None, "32")}
        for command, keys in _READ.items():
            for key in keys:
                flag, value = values[key]
                path.write_text(f"{key}={value}\n")
                argv = [command, *_regime_argv(key)]
                assert cli.main([*argv, "--config", str(path)]) == 0, (command, key)
                if flag:
                    assert cli.main([*argv, *flag.split()]) == 0, (command, key)


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nregime=eighth\namplitude=3.0\n"
                        "eps_list=1e-8,1e-10\ngrid_n=800\n")
        parser_args = type("Args", (), {"command": "sweep"})()
        parser_args.config = str(path)
        parser_args.A = 2.0     # flag overrides file amplitude
        cfg = cli.build_config(parser_args)
        assert cfg.amplitude == 2.0
        assert cfg.eps_list == [1e-8, 1e-10]
        assert cfg.grid_n == 800

    @pytest.mark.parametrize("line", ["bogus=1", "picard_tol=1e-10", "iterate_tol=1e-8"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        args = type("Args", (), {"command": "sweep", "config": str(path)})()
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

    def test_status_with_a_comma_is_quoted(self):
        # at A = 1 the c_hat disk reaches below the real axis and the row
        # records the ValueError, whose message holds a comma
        rows, _, text = cli.run_sweep(fast_cfg(amplitude=1.0, eps_list=[1e-8]))
        assert "," in rows[0]["status"]
        header, row = csv.reader(io.StringIO(text))
        assert header == cli.SWEEP_COLUMNS and len(row) == 19
        assert row[-1] == rows[0]["status"]

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

    def test_root_records_an_error_per_eps(self, capsys):
        # the A = 1 disk reaches below the real axis of c_hat, where Gamma0
        # is undefined: each eps keeps its own entry and the run goes on
        rc = cli.main(["root", "--A", "1", "--eps-list", "1e-8,1e-12"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert rc == 1 and captured.err == ""
        assert [e["eps"] for e in payload] == [1e-8, 1e-12]
        for entry in payload:
            assert entry["certified"] is False
            assert entry["error"].startswith("ValueError: Im c_hat must be positive")

    def test_root_keeps_certified_entries_next_to_a_failure(self, capsys,
                                                           monkeypatch):
        certify = dispersion.certify

        def failing_at_1e_11(params, **kwargs):
            if params.eps == 1e-11:
                raise NonConvergence("budget exhausted")
            return certify(params, **kwargs)

        monkeypatch.setattr(dispersion, "certify", failing_at_1e_11)
        rc = cli.main(["root", "--A", "2", "--eps-list", "1e-11,1e-12"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload[0] == {"eps": 1e-11, "certified": False,
                              "error": "NonConvergence: budget exhausted"}
        assert payload[1]["certified"] is True

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


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code):
    """Run ``code`` in a new interpreter and return the words it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestColdImports:
    """scipy and the worker pool are imported by the first call that needs
    them, so cold commands that never use them start without them."""

    @pytest.mark.parametrize("argv", [
        ["root", "--A", "2", "--eps", "1e-12"],
        ["airy-table", "--k", "0,1", "--re", "0:4:3", "--im", "0:1:2"],
        ["validate", "--A", "2", "--eps", "1e-12"],
    ])
    def test_command_loads_no_scipy(self, argv, tmp_path):
        argv = [*argv, "--out", str(tmp_path / "out")]
        loaded = _run_fresh(
            "import sys\n"
            "from tswave import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(*[m for m in sys.modules if m == 'scipy'\n"
            "        or m.startswith('scipy.') or m == 'concurrent.futures.process'])\n")
        assert loaded == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "--A", "2", "--eps", "1e-12"],
        ["sweep", "--M", "1", "--beta", "0.1075", "--eps", "1e-24"],
        ["sweep", "--A", "2", "--eps", "1e-12", "--full-os", "--grid-n", "400"],
        ["audit", "--A", "3", "--eps", "1e-15"],
        ["root", "--M", "1", "--beta", "0.115", "--eps", "1.17e-42"],
        ["export-mode", "--A", "2", "--eps", "1e-12", "--t-list", "0,5e-4",
         "--nx", "8", "--ny", "32"],
        ["export-mode", "--A", "2", "--eps", "1e-12", "--full-os", "--t-list",
         "0,5e-4", "--nx", "8", "--ny", "32"],
    ])
    def test_command_loads_only_the_lapack_extension(self, argv, tmp_path):
        # the band solves bind LAPACK from scipy's compiled extension alone:
        # neither scipy.linalg's package init nor scipy.sparse runs, and the
        # exported mode is interpolated without scipy.interpolate
        argv = [*argv, "--out", str(tmp_path / "out")]
        loaded = _run_fresh(
            "import sys\n"
            "from tswave import cli\n"
            f"assert cli.main({argv!r}) in (0, 1)\n"
            "print(*[m for m in sys.modules if m == 'scipy'\n"
            "        or m.startswith('scipy.') or m == 'concurrent.futures.process'])\n")
        assert loaded == ["scipy.linalg._flapack"]


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
    assert row["gamma_gap_max"] == gap_max == pytest.approx(3.52712607547709,
                                                           rel=1e-12)


def test_full_os_rows_independent_of_row_order():
    # a row keeps Gamma's per-grid state on its own DiscreteBVP, so it must
    # not depend on which rows ran before it
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


@pytest.mark.parametrize("failure", ["winding", "zero-on-contour", "newton"])
def test_export_falls_back_to_disk_center(monkeypatch, capsys, failure):
    # every failed certification writes one note and exports at the disk
    # center: a winding other than one, a zero on the contour, and a Newton
    # run that did not converge inside the disk
    certify = dispersion.certify

    def failing(params, **kwargs):
        if failure == "winding":
            raise WindingNotOne(2)
        if failure == "zero-on-contour":
            raise ZeroOnContour("Gamma0 vanishes on the contour")
        report = certify(params, **kwargs)
        report.newton.converged = False
        return report

    monkeypatch.setattr(dispersion, "certify", failing)
    rc = cli.main(["export-mode", "--A", "2", "--eps", "1e-12", "--grid-n", "400",
                   "--nx", "2", "--ny", "4"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err.startswith("certification failed (")
    assert err.endswith("); exporting at the disk center\n")
    p0 = SpectralParams.eighth(2.0, 1e-12)
    bvp = osresolvent.build_bvp(p0, n_nodes=400)
    assert out == cli.export_mode(dispersion.center_c(p0), p0, [0.0], 2, 4, bvp=bvp)[2]


def test_export_refuses_more_than_one_eps(capsys, tmp_path):
    # an explicit eps list exports one eps only: the rest used to be dropped
    rc = cli.main(["export-mode", "--A", "2", "--eps-list", "1e-12,1e-13",
                   "--nx", "1", "--ny", "2", "--grid-n", "400"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: export-mode exports one eps, but the eps list holds 2\n"
    path = tmp_path / "run.cfg"
    path.write_text("eps_list=1e-12,1e-13\n")
    rc = cli.main(["export-mode", "--A", "2", "--config", str(path),
                   "--nx", "1", "--ny", "2", "--grid-n", "400"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: export-mode exports one eps, but the eps list holds 2\n"


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


@pytest.mark.parametrize("argv, config, message", [
    (["export-mode", "--A", "2", "--eps", "1e-12", "--t-list", "0,nan", "--nx", "2",
      "--ny", "2", "--grid-n", "400"], None, "export time t = nan: "),
    (["audit", "--A", "2", "--eps", "1e-12", "--ymax", "0", "--grid-n", "100"], None,
     "grid far end must be positive and finite, got 0.0"),
    (["validate", "--A", "nan", "--eps", "1e-12"], None,
     "amplitude must be positive and finite, got nan"),
    (["root", "--A", "2", "--eps", "1e-12"], "newton_tol=nan\n",
     "newton_tol must be positive and finite, got nan"),
    (["sweep", "--A", "2", "--eps", "1e-12", "--ymax", "nan", "--grid-n", "100"], None,
     "grid far end must be positive and finite, got nan"),
    (["sweep", "--A", "2", "--eps", "1e-12", "--grid-n", "10"], None,
     "grid_n must be at least 16, got 10"),
    (["root", "--M", "1", "--beta", "0.11", "--eps", "1e-24", "--r3", "nan"], None,
     "r3 must lie in (0, sqrt(2)/2), got nan"),
    (["sweep", "--A", "2", "--eps", "1e-12"], "init_samples=8\n",
     "init_samples must be at least 16, got 8"),
], ids=["export-nan-time", "audit-zero-ymax", "validate-nan-amplitude", "root-nan-tol",
        "sweep-nan-ymax", "sweep-coarse-grid", "root-nan-r3", "sweep-few-samples"])
def test_nan_and_degenerate_inputs_are_refused(capsys, tmp_path, argv, config, message):
    # a NaN passes a "> limit" or "<= 0" check; each of these used to write
    # NaN output, end in a traceback, report a misleading Newton failure or,
    # for a grid or winding setting, certify Gamma0 before failing the row
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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
    c = dispersion.center_c(p0)
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
