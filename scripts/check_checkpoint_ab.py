#!/usr/bin/env python3
"""Check checkpoint/restore A/B equivalence (ISSUE acceptance).

Drives the point_runner bench through the full checkpoint matrix for
sssp (minnow-pf) and pr (obim):

  1. cold baseline: one uninterrupted run with --stats-json (and,
     for sssp, --timeline and --stats-interval, so every compare
     below also covers the interval samples).
  2. warm save: same run writing a warm-boundary checkpoint; saving
     must not perturb the stats (byte-compare vs baseline).
  3. warm restore: a fresh process starting from the checkpoint must
     report warmStart and produce byte-identical stats (and
     timeline) to the cold baseline.
  4. rescue roundtrip: save a mid-run rescue anchor
     (--checkpoint-after=<cycles>), restore it in a fresh process,
     and byte-compare the stats again.
  5. corruption: flip one byte of the warm checkpoint; the restore
     run must warn (CRC mismatch), degrade to a cold start
     (warmStart false), and still produce byte-identical stats
     ("warn, never wrong").

Usage: check_checkpoint_ab.py <path-to-point_runner-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

POINTS = [
    # (workload, config, timeline?, flags for every run of the point)
    ("sssp", "minnow-pf", True, ["--stats-interval=500"]),
    ("pr", "obim", False, []),
]
SCALE = "0.1"
THREADS = "4"
SEED = "7"


def fail(msg):
    print(f"check_checkpoint_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_point(runner, workload, config, extra, expect_ok=True):
    cmd = [
        runner,
        f"--workload={workload}",
        f"--config={config}",
        f"--scale={SCALE}",
        f"--threads={THREADS}",
        f"--cores={THREADS}",
        f"--seed={SEED}",
    ] + extra
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600
    )
    if expect_ok and proc.returncode != 0:
        fail(
            f"point_runner exited {proc.returncode} for "
            f"{workload}/{config} {extra}:\n{proc.stdout}\n"
            f"{proc.stderr}"
        )
    return proc


def read(path):
    with open(path, "rb") as f:
        return f.read()


def point_json(proc):
    doc = json.loads(proc.stdout)
    if doc.get("schema") != "minnow-point-1":
        fail(f"bad point schema: {proc.stdout!r}")
    return doc


def check_point(runner, tmp, workload, config, with_timeline, flags):
    tag = f"{workload}/{config}"
    d = os.path.join(tmp, workload)
    os.mkdir(d)
    stats_a = os.path.join(d, "a.json")
    tl_a = os.path.join(d, "tl_a.json")
    ckpt = os.path.join(d, "warm.ckpt")

    # 1. Cold baseline.
    extra = flags + [f"--stats-json={stats_a}"]
    if with_timeline:
        extra.append(f"--timeline={tl_a}")
    cold = point_json(run_point(runner, workload, config, extra))
    if cold["warmStart"]:
        fail(f"{tag}: cold run reported warmStart")
    if not cold["verified"]:
        fail(f"{tag}: cold run failed verification")
    a = read(stats_a)
    if flags and b'"intervals":[' not in a:
        fail(f"{tag}: --stats-interval produced no interval samples")

    # 2. Warm save: writing the checkpoint must not perturb stats.
    # (--timeline adds a stats group, so timeline-enabled points
    # must record one in every run to stay comparable.)
    stats_s = os.path.join(d, "save.json")
    extra = flags + [f"--stats-json={stats_s}", f"--checkpoint-out={ckpt}"]
    if with_timeline:
        extra.append(f"--timeline={os.path.join(d, 'tl_s.json')}")
    run_point(runner, workload, config, extra)
    if read(stats_s) != a:
        fail(f"{tag}: saving a checkpoint changed the stats JSON")
    if not os.path.exists(ckpt):
        fail(f"{tag}: no checkpoint written")

    # 3. Warm restore in a fresh process: byte-identical outputs.
    stats_b = os.path.join(d, "b.json")
    tl_b = os.path.join(d, "tl_b.json")
    extra = flags + [f"--stats-json={stats_b}", f"--checkpoint-in={ckpt}"]
    if with_timeline:
        extra.append(f"--timeline={tl_b}")
    warm = point_json(run_point(runner, workload, config, extra))
    if not warm["warmStart"]:
        fail(f"{tag}: restore did not warm-start")
    if read(stats_b) != a:
        fail(f"{tag}: warm-restored stats JSON differs from cold")
    if with_timeline and read(tl_b) != read(tl_a):
        fail(f"{tag}: warm-restored timeline differs from cold")

    # 4. Rescue roundtrip at a mid-run anchor.
    anchor = max(1, int(cold["cycles"]) // 3)
    rescue = os.path.join(d, "rescue.ckpt")
    extra = flags + [f"--checkpoint-out={rescue}",
             f"--checkpoint-after={anchor}"]
    if with_timeline:
        extra.append(f"--timeline={os.path.join(d, 'tl_r.json')}")
    run_point(runner, workload, config, extra)
    if not os.path.exists(rescue):
        fail(f"{tag}: no rescue checkpoint at cycle {anchor}")
    stats_c = os.path.join(d, "c.json")
    extra = flags + [f"--stats-json={stats_c}", f"--checkpoint-in={rescue}"]
    if with_timeline:
        extra.append(f"--timeline={os.path.join(d, 'tl_c.json')}")
    proc = run_point(runner, workload, config, extra)
    if "witness mismatch" in proc.stderr:
        fail(f"{tag}: rescue witness mismatch:\n{proc.stderr}")
    if read(stats_c) != a:
        fail(f"{tag}: rescue-restored stats JSON differs from cold")

    # 5. Corrupted checkpoint: warn, degrade cold, identical stats.
    blob = bytearray(read(ckpt))
    blob[len(blob) // 2] ^= 0x40
    bad = os.path.join(d, "bad.ckpt")
    with open(bad, "wb") as f:
        f.write(blob)
    stats_d = os.path.join(d, "d.json")
    extra = flags + [f"--stats-json={stats_d}", f"--checkpoint-in={bad}"]
    if with_timeline:
        extra.append(f"--timeline={os.path.join(d, 'tl_d.json')}")
    proc = run_point(runner, workload, config, extra)
    if "CRC mismatch" not in proc.stderr:
        fail(
            f"{tag}: corrupt checkpoint produced no CRC warning:\n"
            f"{proc.stderr}"
        )
    degraded = point_json(proc)
    if degraded["warmStart"]:
        fail(f"{tag}: corrupt checkpoint still warm-started")
    if read(stats_d) != a:
        fail(f"{tag}: degraded run's stats JSON differs from cold")

    print(
        f"check_checkpoint_ab: {tag} OK ({len(a)} bytes; warm, "
        f"rescue@{anchor}, and degraded runs all byte-identical)"
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: check_checkpoint_ab.py <point_runner-binary>")
    runner = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        for workload, config, with_timeline, flags in POINTS:
            check_point(runner, tmp, workload, config,
                        with_timeline, flags)
    print("check_checkpoint_ab: OK")


if __name__ == "__main__":
    main()
