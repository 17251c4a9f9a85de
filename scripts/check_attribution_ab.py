#!/usr/bin/env python3
"""Check causal-attribution A/B equivalence (DESIGN.md section 5k).

The attribution layer (--attribution, mem/attribution.hh) must be a
pure observer: enabling it may add the "attribution" stats group and
flow events to the timeline, but must not perturb any simulated
outcome. This script drives point_runner through the matrix:

  1. zero-perturbation A/B: sssp/minnow-pf with and without
     --attribution; after stripping the "attribution" group from the
     enabled run, the two stats documents must be identical (same
     canonical JSON). The run geometry (cycles, instructions,
     verification) must match exactly.
  2. schema: the attribution group must report all five lifecycle
     classes, the derived coverage/pollution rates, lineage
     conservation (assigned == dequeued, live == 0 at exit), and the
     six latency histograms with P50/P95/P99.

The attribution outputs across a checkpoint save/restore are checked
by check_checkpoint_ab.py.

Usage: check_attribution_ab.py <path-to-point_runner-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

SCALE = "0.05"
THREADS = "8"
SEED = "7"

CLASSES = ["timely", "late", "earlyEvicted", "redundant", "polluting"]
HISTS = [
    "issueToFill",
    "fillToUse",
    "issueToUse",
    "pushToEnqueue",
    "enqueueToDequeue",
    "dequeueToFirstMiss",
]


def fail(msg):
    print(f"check_attribution_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_point(runner, extra):
    cmd = [
        runner,
        "--workload=sssp",
        "--config=minnow-pf",
        f"--scale={SCALE}",
        f"--threads={THREADS}",
        f"--cores={THREADS}",
        f"--seed={SEED}",
    ] + extra
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        fail(
            f"point_runner exited {proc.returncode} for {extra}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    doc = json.loads(proc.stdout)
    if doc.get("schema") != "minnow-point-1":
        fail(f"bad point schema: {proc.stdout!r}")
    return doc


def read(path):
    with open(path, "rb") as f:
        return f.read()


def canonical_without_attribution(path):
    doc = json.loads(read(path))
    for run in doc.get("runs", []):
        run.get("stats", {}).get("groups", {}).pop(
            "attribution", None
        )
    return json.dumps(doc, sort_keys=True)


def attribution_group(path):
    doc = json.loads(read(path))
    runs = doc.get("runs", [])
    if not runs:
        fail(f"{path}: no runs in stats JSON")
    group = runs[0].get("stats", {}).get("groups", {}).get(
        "attribution"
    )
    if group is None:
        fail(f"{path}: no attribution group in stats JSON")
    return group


def check_zero_perturbation(runner, tmp):
    off = os.path.join(tmp, "off.json")
    on = os.path.join(tmp, "on.json")
    doc_off = run_point(runner, [f"--stats-json={off}"])
    doc_on = run_point(
        runner, ["--attribution", f"--stats-json={on}"]
    )
    for key in ("cycles", "instructions", "verified"):
        if doc_off[key] != doc_on[key]:
            fail(
                f"--attribution changed {key}: "
                f"{doc_off[key]} vs {doc_on[key]}"
            )
    if canonical_without_attribution(
        off
    ) != canonical_without_attribution(on):
        fail(
            "--attribution perturbed pre-existing stats groups "
            "(off vs on with the attribution group stripped)"
        )
    print("check_attribution_ab: zero-perturbation OK")


def check_schema(tmp):
    group = attribution_group(os.path.join(tmp, "on.json"))
    for cls in CLASSES:
        if cls not in group:
            fail(f"attribution group missing class '{cls}'")
        if not isinstance(group[cls], (int, float)):
            fail(f"attribution class '{cls}' is not numeric")
    for key in (
        "fills",
        "stallCyclesCovered",
        "coveredPct",
        "pollutionPct",
        "lineageAssigned",
        "lineageDequeued",
        "lineageLive",
    ):
        if key not in group:
            fail(f"attribution group missing '{key}'")
    if group["lineageLive"] != 0:
        fail(f"lineage leak: lineageLive={group['lineageLive']}")
    if group["lineageAssigned"] != group["lineageDequeued"]:
        fail(
            "lineage not conserved: "
            f"assigned={group['lineageAssigned']} "
            f"dequeued={group['lineageDequeued']}"
        )
    if not (0 <= group["coveredPct"] <= 100):
        fail(f"coveredPct out of range: {group['coveredPct']}")
    for hist in HISTS:
        h = group.get(hist)
        if not isinstance(h, dict) or h.get("type") != "histogram":
            fail(f"attribution histogram '{hist}' missing")
        for pct in ("P50", "P95", "P99"):
            if f"{hist}{pct}" not in group:
                fail(f"attribution group missing {hist}{pct}")
    print("check_attribution_ab: schema OK")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_attribution_ab.py <point_runner-binary>")
    runner = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        check_zero_perturbation(runner, tmp)
        check_schema(tmp)
    print("check_attribution_ab: PASS")


if __name__ == "__main__":
    main()
