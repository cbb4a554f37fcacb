"""tswave benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process with BLAS/OpenMP threads pinned to 1 and
prints one line per metric, then, as the last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload, untraced and traced,
each in a fresh process.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 4          # extra set-ups in fresh processes, for the median
PROCESS_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    import platform

    import numpy
    import scipy

    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except OSError:
        llc = ""
    return {"machine": platform.machine(), "system": platform.platform(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "llc_bytes": int(llc) if llc.isdigit() else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples above it; with fewer than 21 samples that would not lie above
    the median, so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def calibrated_setup():
    """Set-up time in this process at the reference speed, from the median of
    25 speed probes taken right after it; returns (library, seconds)."""
    lib, setup_s = workloads.setup()
    probe = statistics.median(workloads.speed_probe() for _ in range(25))
    return lib, setup_s * workloads.REFERENCE_PROBE_S / probe


def probe_setup():
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                         capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
                         cwd=ROOT, check=True)
    return float(out.stdout.split()[-1])


def measure(args):
    import warnings
    from resource import RUSAGE_SELF, getrusage
    from time import perf_counter

    import layers
    from spans import Recorder

    lib, setup_s = calibrated_setup()
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    sampler = workloads.SpeedSampler()
    wl = workloads.make(args.workload, lib, args.seed, args.tiny, sampler.clock)
    prep_s = perf_counter() - t0
    ref = workloads.stored_reference(args.workload, args.seed, args.tiny)
    rec = Recorder(sampler.clock)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.trace:
            # untraced and traced passes alternate, and the overhead compares
            # passes per unit of probe time, so that machine drift stays out
            layers.install(rec, lib)
            base, traced = workloads.Passes(), workloads.Passes()
            t0 = perf_counter()
            while not traced.wall or (perf_counter() - t0 + base.wall[-1]
                                      + traced.wall[-1] <= args.seconds):
                workloads.run_passes(wl, 0.0, ref, base, sampler)
                traced.first = base.first
                rec.enabled = True
                workloads.run_passes(wl, 0.0, ref, traced, sampler)
                rec.enabled = False
            runs = (base, traced)
        else:
            runs = (workloads.run_passes(wl, args.seconds, ref, workloads.Passes(),
                                         sampler),)
    main = runs[0]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    warned = {}
    for w in caught:
        key = f"{w.category.__name__}: {w.message}"
        warned[key] = warned.get(key, 0) + 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(wl.inputs)} inputs, {sum(len(r.wall) for r in runs)} passes, "
          f"reference {'stored' if ref is not None else 'none (invariant checks only)'}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    factor = sampler.factor()
    print(f"# input preparation {prep_s:.3f} s; raw pass times (s): "
          + " ".join(f"{w:.4f}" for r in runs for w in r.wall))
    print(f"# speed probe: median {1e3 * statistics.median(sampler.samples):.4f} ms over "
          f"{len(sampler.samples)} samples, quartiles (ms) "
          + " ".join(f"{1e3 * q:.4f}" for q in statistics.quantiles(sampler.samples, n=4))
          + f"; calibration factor {factor:.4f}")
    print(f"# known defects: {main.nan_cells} NaN norm cells in the first pass; "
          f"{sum(warned.values())} warnings: {json.dumps(warned)}")
    for p in problems[:20]:
        print(f"# CHECK FAILED: {p}")

    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        rec.write(workloads.OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
        def per_probe(r):
            return statistics.median(w / s for w, s in zip(r.wall, r.speed))

        values = layers.metrics(rec, traced.wall, per_probe(traced) / per_probe(base) - 1.0,
                                statistics.median(traced.bytes))
    else:
        tail_s, tail_pct, n_items = tail(main.items)
        raw = {"wall_s": statistics.median(main.wall),
               "row_p50_s": statistics.median(main.items), "row_tail_s": tail_s}
        values = {"setup_s": (statistics.median(setups), "s")}
        values.update((k, (v * factor, "s")) for k, v in raw.items())
        values["peak_rss_mb"] = (getrusage(RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print("# raw (uncalibrated) " + " ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
        print("# calibrated set-ups (s): " + " ".join(f"{s:.4f}" for s in setups))
        print(f"# row_tail_s is p{tail_pct:.1f} of {n_items} row samples")
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in values.items()}}))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in a fresh process."""
    status = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=PROCESS_TIMEOUT)
            print(f"== {name} trace {trace} (exit {proc.returncode})")
            print("\n".join(line for line in proc.stdout.splitlines()
                            if not line.startswith("{")))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test; no reference check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.setup_probe or args.workload):
        parser.error("--workload is required")
    if not (ROOT / "src" / "tswave" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tswave sources under {ROOT / 'src'}\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        print(calibrated_setup()[1])
        return 0
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
