"""Command-line driver: sweeps, certification, audits, Airy tables, mode export.

Output is deterministic: floats are rendered with 17 significant digits, rows
are written in input order regardless of worker scheduling, and regression
footers are derived from the written values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import airy, dispersion, fastmode, osresolvent
from .errors import GrowthOverflow, TswaveError, WindingNotOne, ZeroOnContour
from .numerics import hermite
from .numerics import winding_samples  # noqa: F401  (perfbench/layers.py wraps it)
from .params import BETA_EIGHTH, SpectralParams
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
    beta: float | None = None           # None: 0.115 (beta) or 1/8 (eighth)
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
        if self.beta is None:
            self.beta = 0.115 if self.regime == "beta" else BETA_EIGHTH
        if not self.eps_list:
            raise ValueError("eps_list must be nonempty")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.regime == "beta" and not (3.0 / 28.0 < self.beta < 0.125):
            raise ValueError("beta regime needs beta in (3/28, 1/8)")
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got "
                             f"{self.newton_tol}")
        # refused here, before any row runs: the grid builder and the winding
        # count would refuse these only inside each row
        if self.grid_n < 16:
            raise ValueError(f"grid_n must be at least 16, got {self.grid_n}")
        if self.y_max is not None and not 0.0 < self.y_max < math.inf:
            raise ValueError(f"grid far end must be positive and finite, got "
                             f"{self.y_max}")
        if self.init_samples < 16:
            raise ValueError(f"init_samples must be at least 16, got "
                             f"{self.init_samples}")
        if not 0.0 < self.r3 < math.sqrt(2.0) / 2.0:
            raise ValueError(f"r3 must lie in (0, sqrt(2)/2), got {self.r3}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def params(self, eps):
        if self.regime == "eighth":
            return SpectralParams.eighth(self.amplitude, eps, theta=self.theta)
        return SpectralParams.beta_regime(self.amplitude, self.beta, eps,
                                          theta=self.theta)


def _certify(cfg, params0):
    """``dispersion.certify`` with the config's r3, Newton tolerance and
    initial winding samples."""
    return dispersion.certify(params0, r3=cfg.r3, tol=cfg.newton_tol,
                              init_samples=cfg.init_samples)


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
            c_app = report.c
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
        c_audit = dispersion.center_c(params0)

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
    Gamma vanishes on the boundary).  ``c_center`` is not used:
    ``dispersion.certify`` draws Gamma0's disk.
    """
    gaps = []

    def g_exact(c):
        # one call per round of winding samples or Newton step, in blocks
        gamma, diag = osresolvent.remainder_and_gamma(c, params0, bvp)
        gaps.extend(diag["gap"])
        return gamma

    try:
        report = dispersion.certify(params0, r3=cfg.r3,
                                    tol=max(cfg.newton_tol, 1e-11),
                                    init_samples=cfg.init_samples,
                                    g=g_exact, max_iter=30)
    except WindingNotOne as exc:
        report = exc.report
    except ZeroOnContour:
        return (max(gaps) if gaps else math.nan), None, -1
    c_exact = report.c if report.certified else None
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
        from concurrent.futures import ProcessPoolExecutor

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
    # minimal quoting: only a cell with a comma (an error message) is quoted
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([_fmt(r[k]) for k in SWEEP_COLUMNS] for r in rows)
    for key in sorted(footer):
        buf.write(f"# {key},{_fmt(footer[key])}\n")
    return buf.getvalue()


def export_mode(c, params, t_list, nx, ny, out=None, full_os=False,
                bvp=None, fmt="csv", y_span=None):
    """Sample the normal-mode fields on an (x, y, t) lattice in the original
    variables and write them with a per-time perturbation-energy column.

    The x lattice covers one wavelength (endpoint excluded) so the discrete
    energy inherits the exact exponential time dependence; fields are
    normalized to unit energy at the first time.  ``rows`` is the
    (len(t_list)*nx*ny, 8) float array of the written columns.

    Raises ValueError for an empty lattice, and GrowthOverflow for a time
    at which |alpha Im c t / sqrt(eps)| is NaN or exceeds ``_GROWTH_LIMIT``.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"export lattice needs nx >= 1 and ny >= 1, got nx = {nx}, "
                         f"ny = {ny}")
    p = params.with_c(c)
    rate = p.alpha * p.c.imag / p.sqrt_eps
    for t in t_list:
        if not abs(rate * t) <= _GROWTH_LIMIT:
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
    # each order from its own node values: order 0 with order 1 as slopes,
    # order 1 with its difference slopes (the slope of the order-0
    # interpolant is up to 4e-5 of the largest value off)
    prof = np.stack([col for f in (phi, psi)
                     for col in (hermite(bvp.grid, f[1], bvp.d1 @ f[1], Y),
                                 -1j * alpha * hermite(bvp.grid, f[0], f[1], Y))])
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

_ALL = ("sweep", "root", "audit", "validate", "export-mode")
_CERTIFYING = ("sweep", "root", "export-mode")
_GRIDDED = ("sweep", "audit", "export-mode")
_WRITING = ("sweep", "export-mode")


def _switch(text):
    return text.lower() in ("1", "true", "yes")


def _floats(text):
    return [float(s) for s in text.split(",") if s]


# the regime whose amplitude each amplitude flag sets
_AMPLITUDE_FLAGS = {"--A": "eighth", "--M": "beta"}

# One row per RunConfig key: its flags (none: config file only), the parser
# of its value, the subcommands whose handlers read it, and the regime that
# reads it when only one does.  A tuple parser lists the choices of a str,
# and a _switch flag takes no value.  --eps gives one eps and --eps-list
# overrides it; --A with --M is refused.
_KEYS = {
    "regime": (("--regime",), ("eighth", "beta"), _ALL, None),
    "amplitude": (tuple(_AMPLITUDE_FLAGS), float, _ALL, None),
    "beta": (("--beta",), float, _ALL, "beta"),
    "eps_list": (("--eps", "--eps-list"), _floats, _ALL, None),
    "theta": (("--theta",), float, _CERTIFYING, "eighth"),
    "r3": (("--r3",), float, _CERTIFYING, "beta"),
    "out": (("--out",), str, _ALL, None),
    "fmt": (("--format",), ("csv", "json"), _WRITING, None),
    "full_os": (("--full-os",), _switch, _WRITING, None),
    "grid_n": (("--grid-n",), int, _GRIDDED, None),
    "y_max": (("--ymax",), float, _GRIDDED, None),
    "jobs": (("--jobs",), int, ("sweep",), None),
    "newton_tol": ((), float, _CERTIFYING, None),
    "init_samples": ((), int, _CERTIFYING, None),
}


def _add_options(sub, command):
    """``--config`` and the flags of the keys that ``command`` reads."""
    sub.add_argument("--config", help="flat key=value config file")
    for flags, parse, commands, _ in _KEYS.values():
        if command not in commands:
            continue
        if parse is _switch:
            kwargs = {"action": "store_true", "default": None}
        elif isinstance(parse, tuple):
            kwargs = {"choices": parse}
        else:
            kwargs = {"type": parse}
        for flag in flags:
            sub.add_argument(flag, **({"type": float} if flag == "--eps" else kwargs))


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


def build_config(args):
    """Config file values first, command-line flags override."""
    return RunConfig(**_config_kwargs(args))


def _config_kwargs(args):
    kwargs = {}
    if getattr(args, "config", None):
        for key, val in _read_config_file(args.config).items():
            if key not in _KEYS or args.command not in _KEYS[key][2]:
                raise ValueError(f"unrecognized config key {key!r}")
            parse = _KEYS[key][1]
            kwargs[key] = val if isinstance(parse, tuple) else parse(val)
    for key, (flags, _, _, _) in _KEYS.items():
        for flag in flags:
            # argparse's name for the flag's value
            val = getattr(args, flag[2:].replace("-", "_"), None)
            if val is None:
                continue
            kwargs[key] = [val] if flag == "--eps" else val
            own = _AMPLITUDE_FLAGS.get(flag)
            if own and kwargs.setdefault("regime", own) != own:
                raise ValueError(f"{flag} is the {own} regime's amplitude, but "
                                 f"the regime is {kwargs['regime']}")
    regime = kwargs.get("regime", RunConfig.regime)
    for key, (_, _, _, only) in _KEYS.items():
        if key in kwargs and only not in (None, regime):
            flag = next(f for f, r in _AMPLITUDE_FLAGS.items() if r == only)
            raise ValueError(f"{key} applies to the {only} regime only ({flag})")
    if kwargs.get("jobs", 1) < 1:
        raise ValueError(f"jobs must be at least 1, got {kwargs['jobs']}")
    return kwargs


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
                         series_tail=report.series_tail,
                         certified=report.certified)
            ok = ok and report.certified
        except (WindingNotOne, ZeroOnContour) as exc:
            entry.update(certified=False, error=str(exc))
            if isinstance(exc, WindingNotOne):
                entry["winding"] = exc.winding
                entry["min_gamma0_boundary"] = exc.report.boundary_min_abs
            ok = False
        except (TswaveError, ValueError) as exc:
            entry.update(certified=False, error=f"{type(exc).__name__}: {exc}")
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
        c = dispersion.center_c(params0)
        bvp = osresolvent.build_bvp(params0, n_nodes=cfg.grid_n, y_max=cfg.y_max)
        arrays, gamma0_val, _ = osresolvent.assemble_error_terms(c, params0, bvp)
        entry = {"eps": eps, "alpha": params0.alpha,
                 "gamma0_center": [gamma0_val.real, gamma0_val.imag],
                 "warnings": params0.with_c(c).guard_warnings()}
        entry.update(osresolvent.error_norms(arrays, bvp))
        if params0.is_eighth:
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
    kwargs = _config_kwargs(args)
    if len(kwargs.get("eps_list", ())) > 1:
        raise ValueError(f"export-mode exports one eps, but the eps list holds "
                         f"{len(kwargs['eps_list'])}")
    cfg = RunConfig(**kwargs)
    eps = cfg.eps_list[0]
    params0 = cfg.params(eps)
    try:
        report = _certify(cfg, params0)
        failure = None if report.certified else "Newton did not converge in the disk"
    except (WindingNotOne, ZeroOnContour) as exc:
        failure = exc
    if failure is None:
        c = report.c
    else:
        sys.stderr.write(f"certification failed ({failure}); exporting at the "
                         f"disk center\n")
        c = dispersion.center_c(params0)
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
        p = params0.with_c(dispersion.center_c(params0))
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
        _add_options(sub, name)
        sub.set_defaults(handler=fn)

    sub = subs.add_parser("airy-table")
    sub.add_argument("--k", default="0,1,2,3")
    sub.add_argument("--re", default="-6:6:13")
    sub.add_argument("--im", default="-6:6:13")
    sub.add_argument("--out")
    sub.set_defaults(handler=cmd_airy_table)

    sub = subs.add_parser("export-mode")
    _add_options(sub, "export-mode")
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
