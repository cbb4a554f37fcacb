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


def test_full_os_row_reaches_wrapped_resolvent():
    # cli must call osresolvent's module attributes, which the layer
    # wrappers replace, so that the per-layer Gamma and factorization counts
    # see the full-OS row
    code = ("import layers, spans, workloads\n"
            "lib = workloads.load_library()\n"
            "rec = spans.Recorder()\n"
            "layers.install(rec, lib)\n"
            "rec.enabled = True\n"
            "cfg = lib.cli.RunConfig(eps_list=[1e-12], full_os=True, grid_n=200)\n"
            "lib.cli.run_sweep(cfg)\n"
            "print(rec.counts['osresolvent.gamma_evals'],\n"
            "      rec.counts['osresolvent.factorizations'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    gamma_evals, factorizations = map(int, proc.stdout.split())
    assert gamma_evals > 0
    assert factorizations == gamma_evals


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
