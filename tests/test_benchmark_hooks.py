"""The traced benchmark wraps library names by attribute; removing or
renaming one of them must fail here rather than only in a benchmark run."""

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
