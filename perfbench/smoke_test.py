#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny runs of every workload, both modes.

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload it runs one end-to-end and one traced run with the
request budgets scaled down, and asserts that

  * every metric in BENCHMARK.json prints with its unit (plus the
    failed_frac and rps_err_pct report lines);
  * the traced run reproduces the untraced run exactly (trace.valid);
  * no experiment fails a self-check (failed_frac is 0).

Exits 0 when every check holds, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.05"


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--scale", SCALE]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(result, specs, where):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        raise AssertionError(f"{where}: metrics {sorted(metrics)} != "
                             f"{sorted(want)}")
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{where}: {name} unit "
                                 f"{metrics[name]['unit']} != {unit}")


def check_report(lines, where):
    text = "\n".join(lines)
    m = re.search(r"^failed_frac (\S+) ", text, re.M)
    if not m or float(m.group(1)) != 0.0:
        raise AssertionError(f"{where}: failed_frac line missing or nonzero")
    if not re.search(r"^manifest: \{.*\"engine_default\"", text, re.M):
        raise AssertionError(f"{where}: no run manifest")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for wl in bench["workloads"]:
        name = wl["name"]
        try:
            lines, res = run(name, 0)
            check_metrics(res, bench["end_to_end"], f"{name} --trace 0")
            check_report(lines, f"{name} --trace 0")
            if not re.search(r"^rps_err_pct \S+ %", "\n".join(lines), re.M):
                raise AssertionError(f"{name}: no rps_err_pct line")
            if not res["correct"] or res["failed"] != 0:
                raise AssertionError(f"{name} --trace 0: self-check failed")

            lines, res = run(name, 1)
            check_metrics(res, bench["per_layer"], f"{name} --trace 1")
            check_report(lines, f"{name} --trace 1")
            if res["metrics"]["trace.valid"]["value"] != 1:
                raise AssertionError(f"{name}: traced run differs from the "
                                     "harness")
            if not res["correct"] or res["failed"] != 0:
                raise AssertionError(f"{name} --trace 1: self-check failed")
            print(f"ok   {name}")
        except (AssertionError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
