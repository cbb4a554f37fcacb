"""The traced benchmark wraps library names by attribute; removing or
renaming one of them must fail here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_install():
    code = ("import layers, spans, workloads\n"
            "layers.install(spans.Recorder(), workloads.load_library())\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_winding_counter_counts_points_of_a_vectorised_map():
    # certify_eighth hands the winding count one array per round; the
    # counter must still add up points, not calls
    code = ("import layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "from tswave.params import SpectralParams\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "report = lib.dispersion.certify_eighth(SpectralParams.eighth(2.0, 1e-12))\n"
            "print(rec.counts['dispersion.winding_evals'], report.samples)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    evals, samples = map(int, proc.stdout.split())
    assert samples > 64
    assert evals == samples


def test_seeded_newton_evaluates_no_g_and_fires_the_wrapped_names():
    # Newton starts at the root of the winding round's Taylor series, found
    # without evaluating g, so its one span makes no iteration; both
    # wrapped names still fire from find_root_certified
    code = ("import layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "from tswave.params import SpectralParams\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "report = lib.dispersion.certify_eighth(SpectralParams.eighth(2.0, 1e-12))\n"
            "names = [s[0] for s in rec.spans]\n"
            "print(names.count('dispersion.newton'), rec.counts['dispersion.newton_iters'],\n"
            "      names.count('dispersion.winding'), rec.counts['dispersion.winding_evals'],\n"
            "      report.samples, report.certified)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    newton_spans, iters, winding_spans, evals, samples, certified = proc.stdout.split()
    assert (newton_spans, iters, winding_spans, certified) == ("1", "0", "1", "True")
    assert evals == samples


def test_full_os_row_reaches_wrapped_resolvent():
    # cli must call osresolvent's module attributes, which the layer
    # wrappers replace, so that the per-layer Gamma and factorization counts
    # see the full-OS row: one Gamma call per round of wave speeds, one
    # factorization per wave speed
    code = ("import numpy as np, layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "gamma, points = lib.osresolvent.remainder_and_gamma, []\n"
            "def counted(c, *args):\n"
            "    points.append(np.size(c))\n"
            "    return gamma(c, *args)\n"
            "lib.osresolvent.remainder_and_gamma = counted\n"
            "cfg = lib.cli.RunConfig(eps_list=[1e-12], full_os=True, grid_n=200)\n"
            "lib.cli.run_sweep(cfg)\n"
            "print(len(points), sum(points), rec.counts['osresolvent.gamma_evals'],\n"
            "      rec.counts['osresolvent.factorizations'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, points, gamma_evals, factorizations = map(int, proc.stdout.split())
    assert gamma_evals == calls > 0
    assert factorizations == points > calls


def test_traced_full_os_row_matches_untraced():
    # one --full-os row with the hooks installed and enabled gives the
    # unhooked row's status, gap and exact winding, and the traced run sees
    # the blocked Gamma, its error-term assembly and its magnetic solve
    code = ("import json, layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "cert, exact = lib.cli.full_os_certification, []\n"
            "def kept(*args):\n"
            "    out = cert(*args)\n"
            "    exact.append([out[0], out[2]])\n"
            "    return out\n"
            "lib.cli.full_os_certification = kept\n"
            "cfg = lib.cli.RunConfig(amplitude=2.0, eps_list=[1e-12], full_os=True,\n"
            "                        grid_n=400)\n"
            "rows = [lib.cli.sweep_row(cfg, 1e-12)]\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "rows.append(lib.cli.sweep_row(cfg, 1e-12))\n"
            "print(json.dumps({'rows': [[r['status'], r['gamma_gap_max']] for r in rows],\n"
            "                  'exact': exact, 'spans': sorted({s[0] for s in rec.spans})}))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    plain, traced = out["rows"]
    assert plain == traced and plain[0] == "exact-winding=3"
    assert out["exact"][0] == out["exact"][1] and out["exact"][0][1] == 3
    assert {"osresolvent.gamma", "osresolvent.error_terms",
            "magnetic.solve_magnetic"} <= set(out["spans"])


def test_beta_row_reaches_wrapped_magnetic_solve_and_hierarchy():
    # a beta sweep row calls the wrapped magnetic solve and hierarchy through
    # the module attributes the layer wrappers replace, with the call shapes
    # the wrappers read (the trace as the solve's second result)
    code = ("import layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "cfg = lib.cli.RunConfig(regime='beta', amplitude=1.0, beta=0.11,\n"
            "                        eps_list=[1e-24], grid_n=400)\n"
            "row = lib.cli.sweep_row(cfg, 1e-24)\n"
            "print(row['status'], rec.counts['magnetic.solves'],\n"
            "      rec.counts['fastmode.hierarchy_builds'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, solves, builds = proc.stdout.split()
    assert status == "ok"
    assert int(solves) > 0 and int(builds) > 0


def test_setup_loads_only_the_lapack_extension():
    # the benchmark's set-up runs every workload path once; of scipy it
    # loads only the compiled LAPACK extension the band solves call
    code = ("import sys, workloads\n"
            "workloads.setup()\n"
            "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["scipy.linalg._flapack"]


def test_tiny_pass_of_each_workload_is_clean():
    # one untraced --tiny pass per workload, as the benchmark runs it: a change
    # to what the workloads call (RunConfig's fields, full_os_certification's
    # arguments, certify_eighth) fails here rather than only in a benchmark run
    code = ("import json, workloads\n"
            "lib = workloads.load_library()\n"
            "for name in workloads.NAMES:\n"
            "    sampler = workloads.SpeedSampler()\n"
            "    wl = workloads.make(name, lib, 0, tiny=True, clock=sampler.clock)\n"
            "    passes = workloads.run_passes(wl, 0.0, None, workloads.Passes(), sampler)\n"
            "    print(json.dumps([name, passes.attempted, passes.failed, passes.problems]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r[0] for r in results] == ["eighth_sweep", "beta_hierarchy", "full_os",
                                       "export_mode"]
    for name, attempted, failed, problems in results:
        assert attempted > 0 and failed == 0 and problems == [], (name, problems)


def test_one_fast_error_span_per_assembly_in_each_regime():
    # the error-term assembly takes a regime's four fast error terms from one
    # call of the module attribute the layer wrapper replaces
    code = ("import layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "from tswave.params import SpectralParams\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "counts = []\n"
            "for p0, center in ((SpectralParams.eighth(2.0, 1e-12), lib.dispersion.center_c),\n"
            "                   (SpectralParams.beta_regime(1.0, 0.11, 1e-24),\n"
            "                    lib.dispersion.center_beta)):\n"
            "    p = p0.with_c(center(p0))\n"
            "    bvp = lib.osresolvent.build_bvp(p, n_nodes=200)\n"
            "    del rec.spans[:]\n"
            "    lib.osresolvent.assemble_error_terms(p.c, p, bvp)\n"
            "    counts.append(sum(s[0] == 'fastmode.fast_errors' for s in rec.spans))\n"
            "print(*counts)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
