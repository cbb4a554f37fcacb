"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload once on tiny inputs, untraced and traced, each in a fresh
process, and checks that the result line carries every metric named in
BENCHMARK.json with its unit, that all outputs passed their checks, and that
the benchmark refuses to run in a directory without the tswave sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT = 170


def run(cmd, cwd):
    return subprocess.run([sys.executable, *cmd], capture_output=True, text=True,
                          cwd=cwd, timeout=TIMEOUT)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            before = len(errors)
            proc = run(["perfbench/run.py", "--workload", w["name"], "--seed", "0",
                        "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
            label = f"{w['name']} trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{label}: no result line (exit {proc.returncode})\n"
                              f"{proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0:
                errors.append(f"{label}: exit code {proc.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: correct={result['correct']} failed="
                              f"{result['failed']} attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            bad = [k for k, v in result["metrics"].items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
            if bad:
                errors.append(f"{label}: non-finite values {bad}")
            print(f"{label}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)

    # without the sources the benchmark must fail fast and print no result
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run(["perfbench/run.py", "--workload", spec["workloads"][0]["name"],
                "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
