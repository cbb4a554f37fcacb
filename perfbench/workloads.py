"""Benchmark workloads: seeded inputs, timed passes and output checks.

Each workload turns ``--seed`` into a fixed list of inputs (``RunConfig``s
for the sweep workloads, certified roots for ``export_mode``).  A pass runs
every input once through the library entry point behind the CLI path; the
benchmark repeats passes until the measuring time is spent.  Every pass
recomputes the same inputs from scratch, so its rendered output must equal
the first pass's byte for byte.  The first pass is checked in depth after
timing: invariants always, plus the stored reference for seeds that have one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

NAMES = ("eighth_sweep", "beta_hierarchy", "full_os", "export_mode")

# tolerances of the reference comparison, relative to the reference value
ROOT_RTOL = 1e-9
GAP_RTOL = 1e-6
FIELD_RTOL = 1e-6
ENERGY_RTOL = 1e-9
# speed-probe time (s) that defines the reference speed: its median on a
# 2-vCPU Xeon KVM guest with Python 3.11 in its faster phases; see NOTES.md
REFERENCE_PROBE_S = 0.0008
# the export lattice: nx, ny and the number of output times
EXPORT_SHAPE = (64, 256, 4)
TINY_EXPORT_SHAPE = (8, 16, 2)

NORM_COLUMNS = ("e1s_l2", "e2s_l2", "e3s_l2w", "e1f_l2", "e2f_l2", "e3f_l2w", "ff_l2")
# known defect: the |U_s''|^{-1/2}-weighted norms come out NaN once
# U_s'' = -e^{-Y} underflows on the grid, i.e. when y_max = max(40, 8/alpha)
# passes about 745 (every beta-regime row, eighth-regime rows at small alpha)
WEIGHTED_COLUMNS = ("e3s_l2w", "e3f_l2w")
_STATUS = re.compile(
    r"(ok|newton-left-disk|zero-on-contour|winding=(-?\d+)|exact-winding=(-?\d+)"
    r"|(\w+): .*)\Z", re.S)


def load_library():
    """Import the package from ``src`` of this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tswave import (airy, cli, dispersion, errors, fastmode, magnetic,
                        numerics, osresolvent, slowmode)

    return SimpleNamespace(airy=airy, cli=cli, dispersion=dispersion,
                           errors=errors, fastmode=fastmode, magnetic=magnetic,
                           numerics=numerics, osresolvent=osresolvent,
                           slowmode=slowmode)


def setup():
    """Imports, Airy primitive constants and a first call down every path the
    workloads use.  Returns (library, seconds)."""
    t0 = perf_counter()
    lib = load_library()
    lib.airy.primitive_constants()
    cfg = lib.cli.RunConfig(amplitude=4.0, eps_list=[1e-8])
    lib.cli.sweep_row(cfg, 1e-8)
    p = lib.cli.RunConfig(regime="beta", amplitude=1.0, beta=0.11,
                          eps_list=[1e-24]).params(1e-24)
    lib.dispersion.gamma0_beta(lib.dispersion.center_beta(p), p)
    p = cfg.params(1e-8)
    c = p.chat_to_c(lib.dispersion.center_eighth(p))
    lib.osresolvent.remainder_and_gamma(c, p, lib.osresolvent.build_bvp(p, n_nodes=200))
    return lib, perf_counter() - t0


def _strata(rng, lo, hi, k):
    """k log-uniform draws in [lo, hi], one per equal stratum, decreasing."""
    a, b = math.log10(lo), math.log10(hi)
    return sorted((10.0 ** (a + (i + rng.random()) * (b - a) / k) for i in range(k)),
                  reverse=True)


@dataclass
class ExportCall:
    params: object          # SpectralParams without a wave speed
    c: complex              # certified root
    t_list: list


@dataclass
class Unit:
    """Outcome of one timed call: a whole sweep or one export."""
    digest: str
    items: int
    failed: int = 0         # items failing the check (first pass); -1: call raised
    problems: list = field(default_factory=list)


class RowTimer:
    """Wraps ``cli.sweep_row`` to time each row and to turn an untyped
    exception into a failed row, and ``cli.full_os_certification`` to keep
    the exact winding, which a row shows only when its status is 'ok'."""

    def __init__(self, cli, clock):
        self.times = []
        self.exact = {}
        row_fn, cert_fn = cli.sweep_row, cli.full_os_certification

        def timed_row(cfg, eps):
            t0 = clock()
            try:
                row = row_fn(cfg, eps)
            except Exception as exc:  # recorded as a failed row, run goes on
                traceback.print_exc()
                row = {k: math.nan for k in cli.SWEEP_COLUMNS}
                row.update(eps=eps, winding=0,
                           status=f"untyped {type(exc).__name__}: {exc}")
            self.times.append(clock() - t0)
            return row

        def kept_winding(cfg, params0, bvp, c_center):
            out = cert_fn(cfg, params0, bvp, c_center)
            self.exact[(cfg.amplitude, cfg.beta, params0.eps)] = out
            return out

        cli.sweep_row = timed_row
        cli.full_os_certification = kept_winding


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rel(a, b):
    """|a - b| / |b| for real or complex values, inf instead of overflow."""
    d, b = complex(a - b), complex(b)
    return math.hypot(d.real, d.imag) / max(math.hypot(b.real, b.imag), 1e-300)


class SweepWorkload:
    """``sweep`` rows through ``cli.run_sweep`` (serial, CSV to memory)."""

    def __init__(self, name, lib, seed, tiny, clock):
        self.name, self.lib = name, lib
        RunConfig = lib.cli.RunConfig
        rng = random.Random(f"{name}:{seed}")
        if name == "eighth_sweep":
            amps, k = ((4.0,), 2) if tiny else ((2.0, 3.0, 4.0), 12)
            self.inputs = [RunConfig(regime="eighth", amplitude=a,
                                     eps_list=_strata(rng, 1e-28, 1e-8, k))
                           for a in amps]
        elif name == "beta_hierarchy":
            betas, k = ((0.11,), 1) if tiny else ((0.1075, 0.11), 3)
            self.inputs = [RunConfig(regime="beta", amplitude=1.0, beta=b,
                                     eps_list=_strata(rng, 1e-28, 1e-20, k))
                           for b in betas]
        else:
            # one row per pass: a row costs about as much as a whole pass of
            # the other workloads
            self.inputs = [RunConfig(regime="eighth", amplitude=2.0, full_os=True,
                                     eps_list=_strata(rng, 1e-14, 1e-10, 1),
                                     grid_n=400 if tiny else 1600)]
        if not hasattr(lib, "row_timer"):
            lib.row_timer = RowTimer(lib.cli, clock)
        self.timer = lib.row_timer
        self.typed = {name for name, obj in vars(lib.errors).items()
                      if isinstance(obj, type) and issubclass(obj, lib.errors.TswaveError)}
        self.typed.add("ValueError")

    def call(self, cfg):
        return self.lib.cli.run_sweep(cfg)

    def item_times(self, unit_seconds):
        times, self.timer.times = self.timer.times, []
        return times

    def unit(self, cfg, out, ref, first):
        rows, footer, text = out
        unit = Unit(_digest(text), len(rows))
        if not first:
            return unit
        cli = self.lib.cli
        if cli.render_report(rows, footer, "csv") != text:
            unit.problems.append("two renders of the same rows differ")
        if ref is not None and len(ref) != len(rows):
            unit.problems.append(f"{len(rows)} rows, reference has {len(ref)}")
            ref = None
        for i, row in enumerate(rows):
            probs = self.check_row(cfg, row, None if ref is None else ref[i])
            if probs:
                unit.failed += 1
                unit.problems.extend(f"eps={row['eps']:.6g}: {p}" for p in probs)
        return unit

    def exact_of(self, cfg, row):
        return self.timer.exact.get((cfg.amplitude, cfg.beta, row["eps"]))

    def check_row(self, cfg, row, ref):
        """Problems with one sweep row; empty when it passes."""
        d = self.lib.dispersion
        probs = []
        st = row["status"]
        m = _STATUS.match(st)
        if m is None or (m.group(4) and m.group(4) not in self.typed):
            return [f"untyped or unknown status {st!r}"]
        typed_error = bool(m.group(4))
        p0 = cfg.params(row["eps"])
        c = complex(row["re_c_app"], row["im_c_app"])
        has_root = math.isfinite(c.real) and math.isfinite(c.imag)
        if m.group(2) is not None:
            if row["winding"] != int(m.group(2)) or row["winding"] == 1:
                probs.append(f"winding {row['winding']} against status {st!r}")
        elif not typed_error and st != "zero-on-contour":
            # ok, newton-left-disk or exact-winding=k: Gamma0 wound once
            if row["winding"] != 1 or not has_root:
                probs.append(f"status {st!r} with winding {row['winding']}, root {c}")
            else:
                if cfg.regime == "eighth":
                    inside = d.disk_eighth(p0).contains(c + 1j / p0.n, slack=1e-9)
                    g0 = d.gamma0(c, p0)
                else:
                    inside = d.disk_beta(p0, cfg.r3).contains(c, slack=1e-9)
                    g0 = d.gamma0_beta(c, p0)
                if inside != (st != "newton-left-disk"):
                    probs.append(f"root {c} inside disk: {inside}, status {st!r}")
                if inside and not abs(g0) <= cfg.newton_tol:
                    probs.append(f"|Gamma0(root)| = {abs(g0):.3e} > {cfg.newton_tol:.0e}")
                if inside and not math.isfinite(row["growth_rate"]):
                    probs.append("growth rate not finite")
        if not typed_error:
            underflow = math.exp(-(cfg.y_max or max(40.0, 8.0 / p0.alpha))) == 0.0
            for col in NORM_COLUMNS:
                if not math.isfinite(row[col]) and not (underflow and col in WEIGHTED_COLUMNS):
                    probs.append(f"{col} = {row[col]}")
        exact = self.exact_of(cfg, row) if cfg.full_os else None
        if cfg.full_os and not typed_error:
            if exact is None:
                probs.append("full-OS certification did not run")
            else:
                gap, c_exact, w_exact = exact
                if not (math.isfinite(gap) and gap > 0.0):
                    probs.append(f"gamma_gap_max = {gap}")
                if m.group(3) is not None and int(m.group(3)) != w_exact:
                    probs.append(f"exact winding {w_exact} against status {st!r}")
                if c_exact is not None and not d.disk_eighth(p0).contains(
                        c_exact + 1j / p0.n, slack=1e-9):
                    probs.append(f"exact root {c_exact} outside the disk")
        if ref is not None:
            if _rel(row["eps"], ref["eps"]) > 1e-15:
                return probs + [f"input eps differs from reference eps {ref['eps']}"]
            if (st, row["winding"]) != (ref["status"], ref["winding"]):
                probs.append(f"status/winding {st!r}/{row['winding']}, reference "
                             f"{ref['status']!r}/{ref['winding']}")
            if ref["c_app"] is not None:
                c_ref = complex(*ref["c_app"])
                if not _rel(c, c_ref) <= ROOT_RTOL:
                    probs.append(f"root {c} against reference {c_ref}")
            if ref.get("gap") is not None:
                if exact is None or not _rel(exact[0], ref["gap"]) <= GAP_RTOL:
                    probs.append(f"gap against reference {ref['gap']}")
                elif exact[2] != ref["exact_winding"]:
                    probs.append(f"exact winding {exact[2]}, reference {ref['exact_winding']}")
        return probs

    def reference(self, cfg, out):
        rows = out[0]
        refs = []
        for row in rows:
            c = complex(row["re_c_app"], row["im_c_app"])
            entry = {"eps": row["eps"], "status": row["status"],
                     "winding": row["winding"],
                     "c_app": ([c.real, c.imag] if math.isfinite(c.real) and
                               math.isfinite(c.imag) else None)}
            exact = self.exact_of(cfg, row) if cfg.full_os else None
            if exact is not None:
                entry.update(gap=exact[0], exact_winding=exact[2])
            refs.append(entry)
        return refs

    def nan_cells(self, out):
        return sum(1 for r in out[0] for col in NORM_COLUMNS
                   if isinstance(r[col], float) and math.isnan(r[col]))


class ExportWorkload:
    """``export-mode --full-os`` through ``cli.export_mode``, written to a file."""

    def __init__(self, name, lib, seed, tiny, clock):
        self.name, self.lib = name, lib
        self.shape = TINY_EXPORT_SHAPE if tiny else EXPORT_SHAPE
        rng = random.Random(f"{name}:{seed}")
        cfg = lib.cli.RunConfig(amplitude=2.0,
                                eps_list=_strata(rng, 1e-16, 1e-12, 1 if tiny else 4))
        self.inputs = []
        for eps in cfg.eps_list:
            p0 = cfg.params(eps)
            report = lib.dispersion.certify_eighth(p0, tol=cfg.newton_tol,
                                                   init_samples=cfg.init_samples)
            if not report.certified:
                raise RuntimeError(f"export input eps={eps} does not certify")
            c = p0.chat_to_c(report.c_root)
            rate = abs(p0.alpha * c.imag / p0.sqrt_eps)
            # output times span e-foldings 0, 1/2, 1, ... of the energy
            self.inputs.append(ExportCall(p0, c, [k / (4.0 * rate)
                                                  for k in range(self.shape[2])]))
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / "export_mode.csv"

    def call(self, ex):
        nx, ny, _ = self.shape
        rows, energies, text = self.lib.cli.export_mode(
            ex.c, ex.params, ex.t_list, nx, ny, out=str(self.path), full_os=True)
        return rows, energies, text

    def item_times(self, unit_seconds):
        return [unit_seconds]

    def unit(self, ex, out, ref, first):
        rows, energies, text = out
        unit = Unit(_digest(text), 1)
        if first:
            unit.problems = self.check(ex, rows, energies, text, ref)
            unit.failed = int(bool(unit.problems))
        return unit

    def summary(self, ex, rows, energies):
        return {"eps": ex.params.eps, "c": [ex.c.real, ex.c.imag],
                "rows": len(rows), "energies": list(energies),
                "u_l2": math.sqrt(math.fsum(r[3] * r[3] for r in rows))}

    def check(self, ex, rows, energies, text, ref):
        nx, ny, nt = self.shape
        s = self.summary(ex, rows, energies)
        probs = []
        if s["rows"] != nx * ny * nt:
            probs.append(f"{s['rows']} rows, expected {nx * ny * nt}")
        if "nan" in text or not (math.isfinite(s["u_l2"]) and s["u_l2"] > 0.0):
            probs.append("non-finite field values")
        if not self.path.is_file() or self.path.stat().st_size != len(text.encode()):
            probs.append("output file not written in full")
        # energy(t) = exp(2 alpha Im c t / sqrt(eps)) exactly on one wavelength
        rate = ex.params.alpha * ex.c.imag / ex.params.sqrt_eps
        for t, e in zip(ex.t_list, energies):
            if not abs(e / math.exp(2.0 * rate * t) - 1.0) <= 1e-8:
                probs.append(f"energy {e} at t={t} off the exponential law")
        if ref is not None:
            if _rel(complex(*s["c"]), complex(*ref["c"])) > ROOT_RTOL:
                probs.append(f"root {s['c']} against reference {ref['c']}")
            if _rel(s["u_l2"], ref["u_l2"]) > FIELD_RTOL:
                probs.append(f"u l2 {s['u_l2']} against reference {ref['u_l2']}")
            if any(_rel(a, b) > ENERGY_RTOL for a, b in zip(energies, ref["energies"])):
                probs.append("energies differ from the reference")
        return probs

    def reference(self, ex, out):
        rows, energies, _ = out
        return self.summary(ex, rows, energies)

    def nan_cells(self, out):
        return 0


def make(name, lib, seed, tiny=False, clock=perf_counter):
    """The workload ``name`` with its inputs drawn from ``seed``; ``clock``
    times the rows."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    cls = ExportWorkload if name == "export_mode" else SweepWorkload
    return cls(name, lib, seed, tiny, clock)


def stored_reference(name, seed, tiny):
    if tiny or not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def speed_probe():
    """Seconds taken by a fixed pure-Python loop that does not involve tswave."""
    t0 = perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i
    return perf_counter() - t0


class SpeedSampler:
    """Runs the speed probe from a SIGALRM handler every ``interval`` seconds
    while started, so the probe samples the machine's speed during the
    measured work itself; the handler's own time is kept in ``spent`` so
    callers can take it out of their measurements."""

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(speed_probe())
        self.spent += perf_counter() - t0

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def clock(self):
        """perf_counter() without the time spent in the probe."""
        return perf_counter() - self.spent

    def factor(self):
        """Calibration factor: reference probe time over the median sample."""
        if not self.samples:
            self.samples.append(speed_probe())
        return REFERENCE_PROBE_S / statistics.median(self.samples)


@dataclass
class Passes:
    """Timings (raw wall-clock seconds, speed-probe time taken out) and check
    results of the passes run so far."""
    wall: list = field(default_factory=list)
    speed: list = field(default_factory=list)   # median speed probe per pass
    items: list = field(default_factory=list)
    bytes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    nan_cells: int = 0
    first: list | None = None      # units of the first pass


def run_passes(wl, seconds, ref, passes, sampler):
    """Run whole passes while the next one is expected to end within
    ``seconds``, and at least one; the first pass ever run is checked in
    depth, later ones against its bytes.  ``sampler`` probes the machine's
    speed meanwhile; its time is taken out of every measurement."""
    t_start = perf_counter()
    sampler.start()
    while not passes.wall or (perf_counter() - t_start
                              + statistics.median(passes.wall) <= seconds):
        units, wall, nbytes = [], 0.0, 0
        n_samples = len(sampler.samples)
        for i, inp in enumerate(wl.inputs):
            t0 = sampler.clock()
            try:
                out = wl.call(inp)
            except Exception as exc:  # an untyped failure fails the whole unit
                dt = sampler.clock() - t0
                traceback.print_exc()
                units.append(Unit("", len(getattr(inp, "eps_list", [0])), -1,
                                  [f"{type(exc).__name__}: {exc}"]))
                passes.items.extend(wl.item_times(dt))
                wall += dt
                continue
            dt = sampler.clock() - t0
            wall += dt
            passes.items.extend(wl.item_times(dt))
            nbytes += len(out[-1].encode())
            first = passes.first is None
            unit = wl.unit(inp, out, None if ref is None else ref[i], first)
            if first:
                passes.nan_cells += wl.nan_cells(out)
            units.append(unit)
        if passes.first is None:
            passes.first = units
            for unit in units:
                passes.problems.extend(unit.problems)
        for unit, base in zip(units, passes.first):
            passes.attempted += unit.items
            if unit.failed < 0 or unit.digest != base.digest:
                passes.failed += unit.items
                passes.problems.append("output differs from the first pass"
                                       if unit.failed >= 0 else unit.problems[0])
            else:
                passes.failed += base.failed
        passes.wall.append(wall)
        passes.speed.append(statistics.median(sampler.samples[n_samples:]
                                              or [speed_probe()]))
        passes.bytes.append(nbytes)
    sampler.stop()
    return passes
