#!/usr/bin/env python3
"""Measure simulation speed and write BENCH_simspeed.json.

Three measurements, all from binaries built in this tree:

 1. micro_substrate's event-queue benchmarks: the timing-wheel
    EventQueue (BM_EventQueueScheduleRun) against the pre-wheel
    binary-heap baseline compiled into the same binary
    (BM_EventQueueBaselineHeap), so the speedup is apples-to-apples
    on the same host in the same process. The acceptance bar for the
    wheel is >= 1.3x events/sec on a Release build.
 2. One fig workload (fig18, one sweep point) run with
    --host-profile, harvesting the "hostprof" stats group:
    events/sec, run() wall time, host-ns per component class and
    queue-occupancy percentiles.
 3. the causal-attribution layer (--attribution, DESIGN.md section
    5k): wall time of the same point_runner point with attribution
    off (twice, to measure host noise) and on. With the knob off no
    tracker exists (every emit site is a null pointer check), so
    the off runs bound the noise floor; with it on the run must
    stay under a 15% slowdown (or twice the measured off-run noise
    if the host is noisier than that). The smoke point runs ~60 ms,
    where scheduler jitter alone is several percent, so the smoke
    ceiling floor is 1.25x (min-of-3 walls; the full run keeps the
    strict 1.15x contract recorded in BENCH_simspeed.json).

--smoke runs a smaller workload point and only enforces a
conservative >= 1.05x micro speedup (wired into ctest so sim-speed
regressions fail loudly without flaking on noisy CI hosts); the
attribution overhead ceiling applies in both modes.

Usage:
  bench_simspeed.py [--build-dir DIR] [--micro PATH] [--fig PATH]
                    [--runner PATH] [--out BENCH_simspeed.json]
                    [--smoke] [--min-speedup X]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"bench_simspeed: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def find_binary(args, explicit, rel):
    if explicit:
        return explicit
    candidates = []
    if args.build_dir:
        candidates.append(os.path.join(args.build_dir, rel))
    candidates += [os.path.join("build-release", rel),
                   os.path.join("build", rel)]
    for c in candidates:
        if os.path.exists(c):
            return c
    fail(f"cannot find {rel}; pass --build-dir or an explicit path")


def run_micro(micro):
    proc = subprocess.run(
        [micro, "--benchmark_filter=BM_EventQueue",
         "--benchmark_format=json"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"micro_substrate exited {proc.returncode}:"
             f"\n{proc.stdout}\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    eps = {}
    for b in doc.get("benchmarks", []):
        eps[b["name"]] = b.get("items_per_second", 0.0)
    wheel = eps.get("BM_EventQueueScheduleRun")
    heap = eps.get("BM_EventQueueBaselineHeap")
    if not wheel or not heap:
        fail("micro_substrate output missing the event-queue"
             f" benchmarks (got {sorted(eps)})")
    return {
        "wheelEventsPerSec": wheel,
        "heapEventsPerSec": heap,
        "farFutureMixEventsPerSec":
            eps.get("BM_EventQueueFarFutureMix", 0.0),
        "speedup": wheel / heap,
    }


def run_workload(fig, smoke):
    scale = "0.05" if smoke else "0.2"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "stats.json")
        cmd = [
            fig,
            "--workloads=sssp",
            f"--scale={scale}",
            "--threads=4",
            "--cores=4",
            "--credits-list=8",
            "--seed=42",
            "--host-profile",
            f"--stats-json={out}",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=1800)
        if proc.returncode != 0:
            fail(f"fig workload exited {proc.returncode}:"
                 f"\n{proc.stdout}\n{proc.stderr}")
        with open(out) as f:
            doc = json.load(f)
    runs = doc.get("runs") or []
    if not runs:
        fail("no runs in workload stats JSON")
    hp = (runs[0].get("stats", {}).get("groups", {})
          .get("hostprof"))
    if not hp:
        fail("no 'hostprof' group in workload stats JSON"
             " (--host-profile not plumbed?)")
    return {"bench": os.path.basename(fig),
            "args": " ".join(cmd[1:-1]),
            "hostprof": hp}


def timed_run(cmd, timeout=1800):
    """Run a subprocess; return (wall_seconds, proc)."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    return time.monotonic() - t0, proc


def run_attribution(runner, smoke):
    """Measure the --attribution overhead against an off baseline."""
    scale = "0.2" if smoke else "1.0"
    point = ["--workload=sssp", "--config=minnow-pf",
             "--threads=8", "--cores=8", f"--scale={scale}",
             "--seed=42"]

    # Smoke points run ~60 ms, where scheduler jitter alone is a
    # few percent of the wall time; min-of-N keeps the ratio about
    # the simulator instead of the host.
    reps = 3 if smoke else 2

    def point_run(extra):
        best = None
        for _ in range(reps):
            wall, proc = timed_run([runner] + point + extra)
            if proc.returncode != 0:
                fail(f"point_runner exited {proc.returncode}:"
                     f"\n{proc.stdout}\n{proc.stderr}")
            best = wall if best is None else min(best, wall)
        return best

    # Two off measurements bound the host noise; with the knob off
    # the tracker does not exist, so any spread between them is
    # pure host jitter, not attribution cost.
    off_a = point_run([])
    off_b = point_run([])
    on_wall = point_run(["--attribution"])
    off_wall = min(off_a, off_b)
    noise = abs(off_a - off_b) / off_wall if off_wall else 0.0
    floor = 1.25 if smoke else 1.15
    ceiling = max(floor, 1.0 + 2.0 * noise)
    overhead = on_wall / off_wall if off_wall else 1.0
    if overhead > ceiling:
        fail(f"--attribution overhead {overhead:.2f}x exceeds the "
             f"{ceiling:.2f}x ceiling (off {off_wall:.2f}s twice "
             f"within {noise * 100:.1f}%, on {on_wall:.2f}s)")
    return {
        "runner": os.path.basename(runner),
        "point": " ".join(point),
        "offSecondsA": off_a,
        "offSecondsB": off_b,
        "offNoise": noise,
        "onSeconds": on_wall,
        "overhead": overhead,
        "ceiling": ceiling,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default=None)
    ap.add_argument("--micro", default=None,
                    help="path to micro_substrate")
    ap.add_argument("--fig", default=None,
                    help="path to fig18_mpki_credits")
    ap.add_argument("--runner", default=None,
                    help="path to point_runner")
    ap.add_argument("--out", default="BENCH_simspeed.json")
    ap.add_argument("--smoke", action="store_true",
                    help="small workload, conservative threshold")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="override the wheel-vs-heap bar")
    args = ap.parse_args()

    micro = find_binary(args, args.micro, "bench/micro_substrate")
    fig = find_binary(args, args.fig, "bench/fig18_mpki_credits")
    runner = find_binary(args, args.runner, "bench/point_runner")

    micro_res = run_micro(micro)
    workload_res = run_workload(fig, args.smoke)
    attr_res = run_attribution(runner, args.smoke)

    bar = args.min_speedup
    if bar is None:
        bar = 1.05 if args.smoke else 1.3

    doc = {
        "schema": "minnow-simspeed-1",
        "smoke": args.smoke,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "micro": micro_res,
        "workload": workload_res,
        "attribution": attr_res,
        "minSpeedup": bar,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    hp = workload_res["hostprof"]
    print(f"bench_simspeed: wheel {micro_res['wheelEventsPerSec']:.3e}"
          f" ev/s vs heap {micro_res['heapEventsPerSec']:.3e} ev/s"
          f" -> {micro_res['speedup']:.2f}x"
          f" | workload {hp.get('eventsPerSec', 0):.3e} ev/s"
          f" ({int(hp.get('events', 0))} events)"
          f" | attribution {attr_res['overhead']:.2f}x"
          f" (ceiling {attr_res['ceiling']:.2f}x)"
          f" | wrote {args.out}")

    if micro_res["speedup"] < bar:
        fail(f"wheel-vs-heap speedup {micro_res['speedup']:.3f}x"
             f" below the {bar}x bar")
    print("bench_simspeed: OK")


if __name__ == "__main__":
    main()
