"""Command-line driver: sweeps, certification, audits, Airy tables, mode export.

Output is deterministic: floats are rendered with 17 significant digits, rows
are written in input order regardless of worker scheduling, and regression
footers are derived from the written values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import airy, dispersion, fastmode, osresolvent
from .errors import GrowthOverflow, TswaveError, WindingNotOne, ZeroOnContour
from .numerics import winding_samples  # noqa: F401  (perfbench/layers.py wraps it)
from .params import SpectralParams
from .profile import DEFAULT_PROFILE, StructureConstants, check_structure

__all__ = ["RunConfig", "run_sweep", "export_mode", "main"]

SWEEP_COLUMNS = [
    "eps", "alpha", "n", "re_c_app", "im_c_app", "winding",
    "min_gamma0_boundary", "re_c_exact", "im_c_exact", "growth_rate",
    "gamma_gap_max", "e1s_l2", "e2s_l2", "e3s_l2w", "e1f_l2", "e2f_l2",
    "e3f_l2w", "ff_l2", "status",
]

# bound on |alpha Im c t / sqrt(eps)| at an export time: the mode's energy
# then stays within e^{+-177} (about 1e+-77) of its value at t = 0, which
# leaves the carrier, the squared fields, the lattice sums and the
# normalisation to the first time far inside the range of a double
_GROWTH_LIMIT = math.log(sys.float_info.max) / 8.0


def _fmt(x):
    if isinstance(x, str):
        return x
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    return "nan" if math.isnan(xf) else f"{xf:.17g}"


@dataclass
class RunConfig:
    regime: str = "eighth"              # 'eighth' or 'beta'
    amplitude: float = 2.0              # A (eighth) or M (beta)
    beta: float = 0.125
    eps_list: list = field(default_factory=lambda: [1e-8, 1e-10, 1e-12])
    theta: float = 0.5
    r3: float = 0.5
    grid_n: int = 1600
    y_max: float | None = None
    newton_tol: float = 1e-12
    full_os: bool = False
    init_samples: int = 64
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        if self.regime not in ("eighth", "beta"):
            raise ValueError("regime must be 'eighth' or 'beta'")
        if not self.eps_list:
            raise ValueError("eps_list must be nonempty")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.regime == "beta" and not (3.0 / 28.0 < self.beta < 0.125):
            raise ValueError("beta regime needs beta in (3/28, 1/8)")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def params(self, eps):
        if self.regime == "eighth":
            return SpectralParams.eighth(self.amplitude, eps, theta=self.theta)
        return SpectralParams.beta_regime(self.amplitude, self.beta, eps,
                                          theta=self.theta)


# -- regime map: the eighth regime certifies in the variable c_hat, the beta
# regime in the wave speed c itself --

def _certify(cfg, params0):
    if cfg.regime == "eighth":
        return dispersion.certify_eighth(params0, tol=cfg.newton_tol,
                                         init_samples=cfg.init_samples)
    return dispersion.certify_beta(params0, r3=cfg.r3, tol=cfg.newton_tol,
                                   init_samples=cfg.init_samples)


def _disk(cfg, params0):
    """Certification disk in the regime's variable."""
    if cfg.regime == "eighth":
        return dispersion.disk_eighth(params0)
    return dispersion.disk_beta(params0, cfg.r3)


def _to_c(cfg, params0, w):
    """Wave speed c of a value w of the regime's variable."""
    return params0.chat_to_c(w) if cfg.regime == "eighth" else w


def _center_c(cfg, params0):
    """Wave speed c at the certification disk center."""
    center = (dispersion.center_eighth(params0) if cfg.regime == "eighth"
              else dispersion.center_beta(params0))
    return _to_c(cfg, params0, center)


def _write(text, out):
    """Write a report to the file ``out``, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def sweep_row(cfg, eps):
    """One sweep row; failures are recorded in the status field, never raised."""
    params0 = cfg.params(eps)
    row = {k: math.nan for k in SWEEP_COLUMNS}
    row.update(eps=eps, alpha=params0.alpha, n=params0.n, status="ok", winding=0)
    c_app = None
    try:
        try:
            report = _certify(cfg, params0)
            row["winding"] = report.winding
            row["min_gamma0_boundary"] = report.boundary_min_abs
            c_app = _to_c(cfg, params0, report.c_root)
            if not report.certified:
                row["status"] = "newton-left-disk"
        except WindingNotOne as exc:
            row["winding"] = exc.winding
            row["min_gamma0_boundary"] = exc.report.boundary_min_abs
            row["status"] = f"winding={exc.winding}"
        except ZeroOnContour:
            row["status"] = "zero-on-contour"

        if c_app is not None:
            row["re_c_app"], row["im_c_app"] = c_app.real, c_app.imag
        # audit norms at the disk center so the footer regressions compare
        # the same reference point across rows
        c_audit = _center_c(cfg, params0)

        bvp = osresolvent.build_bvp(params0, n_nodes=cfg.grid_n, y_max=cfg.y_max)
        arrays, gamma0_val, _ = osresolvent.assemble_error_terms(c_audit, params0, bvp)
        row.update(osresolvent.error_norms(arrays, bvp))

        c_rate = c_app
        if cfg.full_os:
            gap_max, c_exact, w_exact = full_os_certification(
                cfg, params0, bvp, c_audit)
            row["gamma_gap_max"] = gap_max
            if c_exact is not None:
                row["re_c_exact"], row["im_c_exact"] = c_exact.real, c_exact.imag
                c_rate = c_exact
            if w_exact != 1 and row["status"] == "ok":
                row["status"] = f"exact-winding={w_exact}"
        if c_rate is not None:
            row["growth_rate"] = params0.alpha * c_rate.imag / params0.sqrt_eps
    except TswaveError as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    except ValueError as exc:
        row["status"] = f"ValueError: {exc}"
    return row


def full_os_certification(cfg, params0, bvp, c_center):
    """Certify the exact dispersion function Gamma on the disk of Gamma0 with
    the same winding count and Newton refinement.

    Returns ``(gap_max, c_exact, winding)``: the maximal |Gamma - Gamma0|
    over the winding boundary samples, the exact root as a wave speed (None
    unless Newton converges inside the disk), and the exact winding (-1 when
    Gamma vanishes on the boundary).  ``c_center`` is not used; the disk
    comes from the regime map.
    """
    gaps = []

    def g_exact(w):
        gamma, diag = osresolvent.remainder_and_gamma(_to_c(cfg, params0, w),
                                                      params0, bvp)
        gaps.append(diag["gap"])
        return gamma

    try:
        report = dispersion.find_root_certified(
            g_exact, _disk(cfg, params0), tol=max(cfg.newton_tol, 1e-11),
            init_samples=cfg.init_samples, max_iter=30)
    except WindingNotOne as exc:
        report = exc.report
    except ZeroOnContour:
        return (max(gaps) if gaps else math.nan), None, -1
    c_exact = _to_c(cfg, params0, report.c_root) if report.certified else None
    return max(gaps[:report.samples]), c_exact, report.winding


def _regressions(rows):
    """Log-log regression slopes over the successfully audited rows."""
    out = {}
    eps = np.array([r["eps"] for r in rows], dtype=float)
    if eps.size < 2:
        return out
    le = np.log(eps)
    for col in ("growth_rate", "e1s_l2", "e2s_l2", "e3s_l2w", "e1f_l2",
                "e2f_l2", "e3f_l2w", "ff_l2"):
        vals = np.array([r[col] for r in rows], dtype=float)
        mask = np.isfinite(vals) & (vals > 0.0)
        if mask.sum() >= 2:
            out[f"slope_{col}"] = float(np.polyfit(le[mask], np.log(vals[mask]), 1)[0])
    return out


def run_sweep(cfg):
    """Execute the sweep; returns (rows, footer, text) and writes the report
    to ``cfg.out`` when it is set."""
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_row_worker, [(cfg, e) for e in cfg.eps_list]))
    else:
        rows = [sweep_row(cfg, e) for e in cfg.eps_list]
    footer = _regressions(rows)
    text = render_report(rows, footer, cfg.fmt)
    if cfg.out:
        _write(text, cfg.out)
    return rows, footer, text


def _row_worker(args):
    return sweep_row(*args)


def render_report(rows, footer, fmt):
    if fmt == "json":
        payload = {"rows": [{k: (r[k] if isinstance(r[k], str) else
                                 (None if (isinstance(r[k], float) and math.isnan(r[k]))
                                  else r[k]))
                             for k in SWEEP_COLUMNS} for r in rows],
                   "regressions": footer}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(r[k]) for k in SWEEP_COLUMNS))
    for key in sorted(footer):
        lines.append(f"# {key},{_fmt(footer[key])}")
    return "\n".join(lines) + "\n"


def export_mode(c, params, t_list, nx, ny, out=None, full_os=False,
                bvp=None, fmt="csv", y_span=None):
    """Sample the normal-mode fields on an (x, y, t) lattice in the original
    variables and write them with a per-time perturbation-energy column.

    The x lattice covers one wavelength (endpoint excluded) so the discrete
    energy inherits the exact exponential time dependence; fields are
    normalized to unit energy at the first time.  ``rows`` is the
    (len(t_list)*nx*ny, 8) float array of the written columns.

    Raises ValueError for an empty lattice, and GrowthOverflow for a time
    at which |alpha Im c t / sqrt(eps)| exceeds ``_GROWTH_LIMIT``.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"export lattice needs nx >= 1 and ny >= 1, got nx = {nx}, "
                         f"ny = {ny}")
    p = params.with_c(c)
    rate = p.alpha * p.c.imag / p.sqrt_eps
    for t in t_list:
        if abs(rate * t) > _GROWTH_LIMIT:
            raise GrowthOverflow(t, rate * t, _GROWTH_LIMIT)
    if bvp is None:
        bvp = osresolvent.build_bvp(p)
    phi, psi = osresolvent.build_mode(c, params, bvp, full_os=full_os)
    se = p.sqrt_eps
    alpha = p.alpha
    lx = 2.0 * math.pi * se / alpha
    xs = np.linspace(0.0, lx, nx, endpoint=False)
    y_span = y_span if y_span is not None else 40.0 * se
    ys = np.linspace(0.0, y_span, ny)
    Y = ys / se
    prof = np.stack([phi.eval(1, Y), -1j * alpha * phi.eval(0, Y),
                     psi.eval(1, Y), -1j * alpha * psi.eval(0, Y)])
    block = np.empty((len(t_list), nx, ny, 8))      # t, x, y, u, v, hx, hy, energy_t
    block[..., 1], block[..., 2] = xs[:, None], ys
    energies = []
    dx = lx / nx
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    scale = 1.0
    for it_, t in enumerate(t_list):
        tau = t / se
        carrier = np.exp(1j * alpha * (xs[:, None] / se - p.c * tau))
        fields = np.real(carrier * prof[:, None, :])
        energy = float(sum(np.sum(f**2) for f in fields) * dx * dy)
        if it_ == 0:
            scale = 1.0 / math.sqrt(energy) if energy > 0.0 else 1.0
        energy *= scale**2
        energies.append(energy)
        block[it_, ..., 3:7] = np.moveaxis(fields, 0, -1)
    block[..., 3:7] *= scale
    block[..., [0, 7]] = np.column_stack([t_list, energies])[:, None, None]
    rows = block.reshape(-1, 8)
    # t, x, y and energy_t take few values: format each once and let "%.17g"
    # (equal to _fmt) fill in u, v, hx and hy
    header = "t,x,y,u,v,hx,hy,energy_t"
    y_cells = [_fmt(y) for y in ys]
    xy_cells = [f"{sx},{sy}" for sx in map(_fmt, xs) for sy in y_cells]
    lines = [header]
    for it_, t in enumerate(t_list):
        t_cell, e_cell = _fmt(t), _fmt(energies[it_])
        template = "\n".join(f"{t_cell},{xy},%.17g,%.17g,%.17g,%.17g,{e_cell}"
                             for xy in xy_cells)
        lines.append(template % tuple(block[it_, ..., 3:7].ravel().tolist()))
    text = "\n".join(lines) + "\n"
    if fmt == "json":
        cells = [line.split(",") for line in text.split("\n")[1:-1]]
        text = json.dumps({"columns": header.split(","), "rows": cells}) + "\n"
    if out:
        _write(text, out)
    return rows, energies, text


# -- argument handling --

def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--regime", choices=("eighth", "beta"))
    sub.add_argument("--A", type=float, dest="amplitude_a")
    sub.add_argument("--M", type=float, dest="amplitude_m")
    sub.add_argument("--beta", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--eps-list", dest="eps_list",
                     help="comma-separated, strictly decreasing")
    sub.add_argument("--theta", type=float)
    sub.add_argument("--r3", type=float)
    sub.add_argument("--out")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"))
    sub.add_argument("--full-os", dest="full_os", action="store_true",
                     default=None)
    sub.add_argument("--grid-n", dest="grid_n", type=int)
    sub.add_argument("--ymax", dest="y_max", type=float)
    sub.add_argument("--jobs", type=int)


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


_CFG_TYPES = {
    "regime": str, "amplitude": float, "beta": float, "theta": float,
    "r3": float, "grid_n": int, "y_max": float, "newton_tol": float,
    "full_os": lambda s: s.lower() in ("1", "true", "yes"),
    "init_samples": int, "out": str, "fmt": str, "jobs": int,
}


def build_config(args):
    """Config file values first, command-line flags override."""
    raw = {}
    if getattr(args, "config", None):
        raw.update(_read_config_file(args.config))
    kwargs = {}
    for key, val in raw.items():
        if key == "eps_list":
            kwargs["eps_list"] = [float(s) for s in val.split(",") if s]
        elif key in _CFG_TYPES:
            kwargs[key] = _CFG_TYPES[key](val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    for key in ("regime", "beta", "theta", "r3", "grid_n", "y_max", "fmt",
                "out", "full_os", "jobs"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if getattr(args, "amplitude_a", None) is not None:
        kwargs["amplitude"] = args.amplitude_a
        kwargs.setdefault("regime", "eighth")
    if getattr(args, "amplitude_m", None) is not None:
        kwargs["amplitude"] = args.amplitude_m
        kwargs.setdefault("regime", "beta")
    if getattr(args, "eps_list", None):
        kwargs["eps_list"] = [float(s) for s in args.eps_list.split(",") if s]
    elif getattr(args, "eps", None) is not None:
        kwargs["eps_list"] = [args.eps]
    if kwargs.get("regime") == "beta" and kwargs.get("beta", 0.125) == 0.125:
        kwargs["beta"] = 0.115
    return RunConfig(**kwargs)


def cmd_sweep(args):
    cfg = build_config(args)
    rows, footer, text = run_sweep(cfg)
    if not cfg.out:
        _write(text, None)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def cmd_root(args):
    cfg = build_config(args)
    results = []
    ok = True
    for eps in cfg.eps_list:
        params0 = cfg.params(eps)
        entry = {"eps": eps}
        try:
            report = _certify(cfg, params0)
            root = report.c_root
            entry.update(variable=report.variable, re_root=root.real,
                         im_root=root.imag, winding=report.winding,
                         min_gamma0_boundary=report.boundary_min_abs,
                         reference_gap_max=report.reference_gap_max,
                         residual=report.newton.final_residual,
                         newton_steps=len(report.newton.iterates) - 1,
                         certified=report.certified)
            ok = ok and report.certified
        except (WindingNotOne, ZeroOnContour) as exc:
            entry.update(certified=False, error=str(exc))
            if isinstance(exc, WindingNotOne):
                entry["winding"] = exc.winding
                entry["min_gamma0_boundary"] = exc.report.boundary_min_abs
            ok = False
        results.append(entry)
    text = json.dumps(results, indent=2, sort_keys=True, default=_fmt) + "\n"
    _write(text, cfg.out)
    return 0 if ok else 1


def cmd_audit(args):
    cfg = build_config(args)
    entries = []
    for eps in cfg.eps_list:
        params0 = cfg.params(eps)
        c = _center_c(cfg, params0)
        bvp = osresolvent.build_bvp(params0, n_nodes=cfg.grid_n, y_max=cfg.y_max)
        arrays, gamma0_val, _ = osresolvent.assemble_error_terms(c, params0, bvp)
        entry = {"eps": eps, "alpha": params0.alpha,
                 "gamma0_center": [gamma0_val.real, gamma0_val.imag],
                 "warnings": params0.with_c(c).guard_warnings()}
        entry.update(osresolvent.error_norms(arrays, bvp))
        if cfg.regime == "eighth":
            entry["tau1_measured"] = fastmode.measure_tau1(params0.with_c(c))
        entries.append(entry)
    text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
    _write(text, cfg.out)
    return 0


def cmd_airy_table(args):
    ks = [int(s) for s in args.k.split(",")]
    re0, re1, nre = (float(s) for s in args.re.split(":"))
    im0, im1, nim = (float(s) for s in args.im.split(":"))
    lines = ["k,re_z,im_z,re_ai,im_ai,branch"]
    for k in ks:
        for re in np.linspace(re0, re1, int(nre)):
            for im in np.linspace(im0, im1, int(nim)):
                z = complex(re, im)
                if abs(np.angle(z)) > airy.SECTOR:
                    continue
                val = airy.ai_value(k, z)
                lines.append(",".join([str(k), _fmt(re), _fmt(im),
                                       _fmt(val.value.real), _fmt(val.value.imag),
                                       val.branch.value]))
    text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


def cmd_export_mode(args):
    cfg = build_config(args)
    eps = cfg.eps_list[0]
    params0 = cfg.params(eps)
    try:
        c = _to_c(cfg, params0, _certify(cfg, params0).c_root)
    except WindingNotOne as exc:
        sys.stderr.write(f"certification failed ({exc}); exporting at the "
                         f"disk center\n")
        c = _center_c(cfg, params0)
    t_list = [float(s) for s in args.t_list.split(",")]
    bvp = osresolvent.build_bvp(params0, n_nodes=cfg.grid_n, y_max=cfg.y_max)
    _, _, text = export_mode(c, params0, t_list, args.nx, args.ny,
                             full_os=cfg.full_os, bvp=bvp, fmt=cfg.fmt)
    _write(text, cfg.out)
    return 0


def cmd_validate(args):
    cfg = build_config(args)
    report = check_structure(DEFAULT_PROFILE, StructureConstants())
    info = {"structure_margins": report.margins, "structure_ok": report.ok,
            "rows": []}
    for eps in cfg.eps_list:
        params0 = cfg.params(eps)
        c = _center_c(cfg, params0)
        p = params0.with_c(c)
        info["rows"].append({"eps": eps, "alpha": p.alpha, "n": p.n,
                             "warnings": p.guard_warnings()})
    text = json.dumps(info, indent=2, sort_keys=True) + "\n"
    _write(text, cfg.out)
    return 0 if report.ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tswave", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("sweep", cmd_sweep), ("root", cmd_root),
                     ("audit", cmd_audit), ("validate", cmd_validate)):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(handler=fn)

    sub = subs.add_parser("airy-table")
    sub.add_argument("--k", default="0,1,2,3")
    sub.add_argument("--re", default="-6:6:13")
    sub.add_argument("--im", default="-6:6:13")
    sub.add_argument("--out")
    sub.set_defaults(handler=cmd_airy_table)

    sub = subs.add_parser("export-mode")
    _add_common(sub)
    sub.add_argument("--t-list", dest="t_list", default="0.0")
    sub.add_argument("--nx", type=int, default=16)
    sub.add_argument("--ny", type=int, default=64)
    sub.set_defaults(handler=cmd_export_mode)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TswaveError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
