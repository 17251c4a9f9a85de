#!/usr/bin/env python3
"""Measure simulation speed and write BENCH_simspeed.json.

Two measurements, both from binaries built in this tree:

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
 3. offload_breakdown's --dequeue-batch sweep: the engine round-trip
    component split per batch size lands in the "offload" section,
    and the run fails if k=4 bundling does not pull the worker
    popWait P95 strictly below the k=1 value (the round-trip
    amortization the batched-dequeue path exists for).

 4. a --shards=1,2,4,8 sweep of the same fig18 point with
    stats-interval sampling on: events/sec per shard count plus the
    pool's barrier-wait share land in the "shards" section. The
    full run on hosts with >= 4 CPUs requires shards=4 to beat
    shards=1 events/sec; --smoke and smaller hosts record the sweep
    and the comparison only (sharding executes every event on the
    leader, so it is slower at every shard count; see ROADMAP).

 5. the checkpoint subsystem (DESIGN.md section 5i): host-time cost
    of saving and warm-restoring a fig18-scale point via
    point_runner, and warm-vs-cold time-to-first-figure-point for a
    crash-resumed sweep (scripts/sweep_orchestrator.py serving a
    finished point from its manifest vs re-running it cold). The
    resumed sweep must deliver its first figure point >= 2x faster
    than the cold run.

 6. the causal-attribution layer (--attribution, DESIGN.md section
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
regressions fail loudly without flaking on noisy CI hosts); the 2x
checkpoint-resume floor and the attribution overhead ceiling apply
in both modes.

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


def run_offload(offload, smoke):
    """Sweep --dequeue-batch and gate on the popWait tail.

    k=1 pops pay a full engine round-trip per task, so a meaningful
    share of them wait >= one popWait histogram bucket; k=4 bundles
    amortize the round-trip and must pull the P95 strictly below the
    k=1 value on the same workload point.
    """
    scale = "0.05" if smoke else "0.1"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "offload.json")
        cmd = [
            offload,
            "--workloads=sssp",
            f"--scale={scale}",
            "--threads=4",
            "--cores=4",
            "--seed=42",
            "--batch-list=1,2,4,8,4s",
            f"--json={out}",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=1800)
        if proc.returncode != 0:
            fail(f"offload_breakdown exited {proc.returncode}:"
                 f"\n{proc.stdout}\n{proc.stderr}")
        with open(out) as f:
            doc = json.load(f)
    points = {(p["batch"], p.get("specSlot", False)): p
              for p in doc.get("points", [])}
    k1, k4 = points.get((1, False)), points.get((4, False))
    spec = points.get((4, True))
    if not k1 or not k4:
        fail("offload_breakdown output missing the k=1/k=4 points")
    if not spec:
        fail("offload_breakdown output missing the k=4 spec-slot"
             " point (--batch-list '4s' entry)")
    for p in (k1, k4, spec):
        if p["timedOut"]:
            fail(f"offload point k={p['batch']} timed out")
    if k4["popWaitP95"] >= k1["popWaitP95"]:
        fail(f"dequeue batching regression: k=4 popWaitP95"
             f" {k4['popWaitP95']} not below k=1's"
             f" {k1['popWaitP95']}")
    if spec["specHits"] <= 0:
        fail("spec-slot point recorded zero specHits: the core-side"
             " slot is not delivering (or the sweep lost the"
             " --spec-slot plumbing again)")
    return {"bench": os.path.basename(offload),
            "args": " ".join(cmd[1:-1]),
            "workload": doc.get("workload"),
            "points": doc.get("points", [])}


def run_shards(fig, smoke):
    """Sweep --shards on one fig18 point and record events/sec.

    The sharded scheduler keeps event execution serial (that is the
    byte-identity argument), so its host speedup comes from the
    shard pool's fan-out of stats-interval sampling and, at the
    bench layer, the --host-par point farm. Both need real host
    cores: the shards=4-beats-shards=1 floor is only enforced by
    the full run on a host with >= 4 CPUs. Otherwise the sweep and
    the comparison are recorded with the gate marked skipped (a
    1-CPU CI box cannot express host parallelism, and the smoke
    run sits in tier-1, which must pass on any host).
    """
    scale = "0.05" if smoke else "0.2"
    cores = "16" if smoke else "64"
    sweep = []
    for shards in (1, 2, 4, 8):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "stats.json")
            cmd = [
                fig,
                "--workloads=sssp",
                f"--scale={scale}",
                "--threads=8",
                f"--cores={cores}",
                "--credits-list=8",
                "--seed=42",
                "--host-profile",
                "--stats-interval=2000",
                f"--shards={shards}",
                f"--stats-json={out}",
            ]
            wall, proc = timed_run(cmd)
            if proc.returncode != 0:
                fail(f"shards={shards} fig point exited"
                     f" {proc.returncode}:\n{proc.stdout}\n"
                     f"{proc.stderr}")
            with open(out) as f:
                doc = json.load(f)
        runs = doc.get("runs") or []
        if not runs:
            fail(f"no runs in shards={shards} stats JSON")
        hp = (runs[0].get("stats", {}).get("groups", {})
              .get("hostprof"))
        if not hp:
            fail(f"no hostprof group at shards={shards}")
        sweep.append({
            "shards": shards,
            "eventsPerSec": hp.get("eventsPerSec", 0.0),
            "events": hp.get("events", 0.0),
            "wallNs": hp.get("wallNs", 0.0),
            "barrierWaitNs": hp.get("barrierWaitNs", 0.0),
            "wallSeconds": wall,
        })
    by = {p["shards"]: p for p in sweep}
    host_cpus = os.cpu_count() or 1
    gate_enforced = host_cpus >= 4 and not smoke
    shards4_beats_1 = by[4]["eventsPerSec"] > by[1]["eventsPerSec"]
    if gate_enforced and not shards4_beats_1:
        fail(f"sharded-host regression: shards=4"
             f" {by[4]['eventsPerSec']:.3e} ev/s not above"
             f" shards=1 {by[1]['eventsPerSec']:.3e} ev/s"
             f" on a {host_cpus}-CPU host")
    return {
        "bench": os.path.basename(fig),
        "point": f"sssp scale={scale} threads=8 cores={cores}"
                 f" credits=8 stats-interval=2000",
        "hostCpus": host_cpus,
        "gateEnforced": gate_enforced,
        "shards4BeatsShards1": shards4_beats_1,
        "sweep": sweep,
    }


def timed_run(cmd, timeout=1800):
    """Run a subprocess; return (wall_seconds, proc)."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    return time.monotonic() - t0, proc


def run_checkpoint(runner):
    """Measure checkpoint save/restore host cost and the
    warm-vs-cold time-to-first-figure-point of a resumed sweep."""
    orch = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "sweep_orchestrator.py")
    scale = "1.0"  # generation + sim must dominate process startup
    point = ["--workload=sssp", "--config=minnow-pf",
             "--threads=4", "--cores=4", f"--scale={scale}",
             "--seed=42"]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "warm.ckpt")

        def point_run(extra):
            out = os.path.join(tmp, "point.json")
            wall, proc = timed_run(
                [runner] + point + [f"--json={out}"] + extra)
            if proc.returncode != 0:
                fail(f"point_runner exited {proc.returncode}:"
                     f"\n{proc.stdout}\n{proc.stderr}")
            with open(out) as f:
                return wall, json.load(f)

        cold_wall, cold = point_run([])
        save_wall, _save = point_run([f"--checkpoint-out={ckpt}"])
        warm_wall, warm = point_run([f"--checkpoint-in={ckpt}"])
        if not warm.get("warmStart"):
            fail("checkpoint restore did not warm-start")

        # Orchestrated sweep: first invocation runs the point and
        # journals it; the re-invocation (a crash-recovery resume)
        # serves it from the manifest. Its wall clock is the
        # resumed sweep's time-to-first-figure-point.
        sweep = [sys.executable, orch, f"--runner={runner}",
                 f"--points=sssp:minnow-pf:4", f"--scale={scale}",
                 "--seed=42", f"--out={os.path.join(tmp, 'sweep')}"]
        _, proc = timed_run(sweep)
        if proc.returncode != 0:
            fail(f"orchestrator sweep failed:\n{proc.stdout}"
                 f"\n{proc.stderr}")
        resume_wall, proc = timed_run(sweep)
        if proc.returncode != 0 or \
                "served from manifest" not in proc.stdout:
            fail(f"orchestrator resume did not serve from the "
                 f"manifest:\n{proc.stdout}\n{proc.stderr}")
        ckpt_bytes = os.path.getsize(ckpt)

    return {
        "runner": os.path.basename(runner),
        "point": " ".join(point),
        "coldSeconds": cold_wall,
        "saveSeconds": save_wall,
        "warmSeconds": warm_wall,
        "coldBuildSeconds": cold["buildSeconds"],
        "warmBuildSeconds": warm["buildSeconds"],
        "checkpointBytes": ckpt_bytes,
        "resumeSeconds": resume_wall,
        "resumeSpeedup": cold_wall / resume_wall,
    }


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
    ap.add_argument("--offload", default=None,
                    help="path to offload_breakdown")
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
    offload = find_binary(args, args.offload,
                          "bench/offload_breakdown")
    runner = find_binary(args, args.runner, "bench/point_runner")

    micro_res = run_micro(micro)
    workload_res = run_workload(fig, args.smoke)
    offload_res = run_offload(offload, args.smoke)
    shards_res = run_shards(fig, args.smoke)
    ckpt_res = run_checkpoint(runner)
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
        "offload": offload_res,
        "shards": shards_res,
        "checkpoint": ckpt_res,
        "attribution": attr_res,
        "minSpeedup": bar,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    hp = workload_res["hostprof"]
    opts = {p["batch"]: p for p in offload_res["points"]
            if not p.get("specSlot")}
    sh = {p["shards"]: p for p in shards_res["sweep"]}
    print(f"bench_simspeed: wheel {micro_res['wheelEventsPerSec']:.3e}"
          f" ev/s vs heap {micro_res['heapEventsPerSec']:.3e} ev/s"
          f" -> {micro_res['speedup']:.2f}x"
          f" | workload {hp.get('eventsPerSec', 0):.3e} ev/s"
          f" ({int(hp.get('events', 0))} events)"
          f" | popWaitP95 k=1 {opts[1]['popWaitP95']:.0f}"
          f" -> k=4 {opts[4]['popWaitP95']:.0f}"
          f" | shards 1->{sh[1]['eventsPerSec']:.2e}"
          f" 4->{sh[4]['eventsPerSec']:.2e} ev/s"
          f" (gate {'on' if shards_res['gateEnforced'] else 'off'},"
          f" {shards_res['hostCpus']} host CPUs)"
          f" | ckpt cold {ckpt_res['coldSeconds']:.3f}s, resume "
          f"{ckpt_res['resumeSeconds']:.3f}s"
          f" ({ckpt_res['resumeSpeedup']:.1f}x)"
          f" | attribution {attr_res['overhead']:.2f}x"
          f" (ceiling {attr_res['ceiling']:.2f}x)"
          f" | wrote {args.out}")

    if micro_res["speedup"] < bar:
        fail(f"wheel-vs-heap speedup {micro_res['speedup']:.3f}x"
             f" below the {bar}x bar")
    if ckpt_res["resumeSpeedup"] < 2.0:
        fail(f"resumed sweep's time-to-first-figure-point is only "
             f"{ckpt_res['resumeSpeedup']:.2f}x faster than cold "
             f"(floor 2x)")
    print("bench_simspeed: OK")


if __name__ == "__main__":
    main()
