#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute on 4 CPUs).

    python3 perfbench/smoke_test.py

Runs every workload at --smoke scale, untraced and traced, and checks
that
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, and nothing failed;
  - every metric BENCHMARK.json names is emitted with its unit, and no
    other metric;
  - the traced hostprof shares sum to 1;
  - every per-layer metric maps to an end-to-end metric and a
    workload that BENCHMARK.json names;
  - host time is refused from Debug and sanitizer builds;
  - a directory holding only BENCHMARK.json and perfbench/ fails
    without printing a result.
Exits nonzero on the first failed check.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def check_static(run, manifest):
    names = {w["name"] for w in manifest["workloads"]}
    e2e = {m["name"] for m in manifest["end_to_end"]}
    layers = {m["name"] for m in manifest["per_layer"]}
    check(set(run.WORKLOADS) == names,
          f"run.py workloads {sorted(run.WORKLOADS)} != manifest")
    check(set(run.LAYER_MOVES) == layers,
          f"LAYER_MOVES and per_layer differ: "
          f"{sorted(set(run.LAYER_MOVES) ^ layers)}")
    for layer, (metric, workload) in run.LAYER_MOVES.items():
        check(metric in e2e, f"{layer} maps to unknown metric {metric}")
        check(workload in names,
              f"{layer} maps to unknown workload {workload}")
    good = {"build_type": "RelWithDebInfo", "sanitizer": ""}
    run.check_provenance(good)
    for bad in ({"build_type": "Debug", "sanitizer": ""},
                {"build_type": "", "sanitizer": ""},
                {"build_type": "Release", "sanitizer": "address"}):
        try:
            run.check_provenance(bad)
        except run.BenchError:
            continue
        check(False, f"provenance {bad} was not refused")


def check_run(workload, trace, manifest):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    label = f"{workload} --trace {trace}"
    check(p.returncode == 0, f"{label} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: {result}")
    listed = manifest["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in listed},
          f"{label}: metric names differ: "
          f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for m in listed:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]),
              f"{label}: {m['name']} = {got}")
    if trace:
        shares = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".host_share"))
        check(abs(shares - 1) < 1e-9, f"{label}: host shares sum {shares}")
    print(f"ok: {label}: {len(metrics)} metrics, "
          f"{result['attempted']} points")


def check_bare_directory():
    """Without the simulator's sources the benchmark must fail."""
    bare = ROOT / ".bench_build" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "engine-sssp", "--seed", "1", "--seconds", "1"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(p.returncode != 0 and not p.stdout.strip(),
          f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    print("ok: bare directory fails without a result")


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_static(load_run_module(), manifest)
    print("ok: manifest, layer map and provenance checks")
    check_bare_directory()
    for w in manifest["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, manifest)
    print("smoke test passed")


if __name__ == "__main__":
    main()
