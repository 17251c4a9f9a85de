#!/usr/bin/env python3
"""Time the observability sinks one at a time on one figure point.

Runs point_runner's observed sssp point (minnow-pf, 64 threads,
scale 0.5, seed 1) with no sinks, with each sink alone (--stats-interval, --timeline,
--attribution) and with all of them, and reports wall time and peak
RSS per sink set. With --baseline, a second point_runner build is
timed in alternating order on the same host, so the two columns
share the host's drift.

Usage:
  bench_obs_sinks.py --runner build/bench/point_runner \
      [--baseline other/build/bench/point_runner] [--reps 5] \
      [--label TEXT] [--out BENCH_obs_sinks.json]

Each sink set's entry holds every sample plus its median and
inter-quartile range, the noise bound for comparing two builds.
With --out, the run is appended to the file's "history" list. Each
process is started through perfbench/child.py, so its peak RSS is not
that of this script. It still counts child.py's own Python process up
to the exec, so the run also records "rss_floor_mb", the peak RSS of
/bin/true started the same way: a sink set whose RSS reads at that
floor uses no more than it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "perfbench", "child.py")
POINT = ["--workload=sssp", "--config=minnow-pf", "--threads=64",
         "--scale=0.5", "--seed=1"]
SINK_SETS = {
    "none": [],
    "interval": ["--stats-interval=2000"],
    "timeline": ["--timeline={tmp}/timeline.json"],
    "attribution": ["--attribution"],
    "all": ["--timeline={tmp}/timeline.json", "--attribution",
            "--stats-interval=2000"],
}


def run_once(cmd, tmp):
    """Wall seconds and peak RSS (MiB) of one process."""
    report = os.path.join(tmp, "child.json")
    err_path = os.path.join(tmp, "stderr.txt")
    with open(err_path, "w") as err:
        subprocess.run([sys.executable, CHILD, report] + cmd,
                       stdout=subprocess.DEVNULL, stderr=err, check=True)
    with open(report) as f:
        r = json.load(f)
    if r["code"] != 0:
        with open(err_path) as f:
            sys.exit(f"bench_obs_sinks: {' '.join(cmd)} failed:\n"
                     f"{f.read()}")
    return r["wall_s"], r["maxrss_kb"] / 1024.0


def summary(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": round(statistics.median(xs), 4),
            "iqr": round(q[2] - q[0], 4),
            "samples": [round(x, 4) for x in xs]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runner", required=True)
    ap.add_argument("--baseline")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--label", default="")
    ap.add_argument("--out")
    opts = ap.parse_args()

    builds = {"change": opts.runner}
    if opts.baseline:
        builds["baseline"] = opts.baseline
    walls = {b: {s: [] for s in SINK_SETS} for b in builds}
    rss = {b: {s: [] for s in SINK_SETS} for b in builds}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(opts.reps):
            for sink, flags in SINK_SETS.items():
                # Alternate which build goes first in each pair.
                order = list(builds)
                if rep % 2:
                    order.reverse()
                for b in order:
                    cmd = [builds[b]] + POINT + [
                        f.format(tmp=tmp) for f in flags] + [
                        f"--stats-json={tmp}/stats.json"]
                    w, r = run_once(cmd, tmp)
                    walls[b][sink].append(w)
                    rss[b][sink].append(r)
        floor = run_once(["/bin/true"], tmp)[1]
    result = {
        "label": opts.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
        "point": POINT,
        "reps": opts.reps,
        "rss_floor_mb": round(floor, 4),
        "builds": {b: {"runner": builds[b], "sinks": {
            s: {"wall_s": summary(walls[b][s]),
                "peak_rss_mb": summary(rss[b][s])}
            for s in SINK_SETS}} for b in builds},
    }
    for b in builds:
        for s in SINK_SETS:
            e = result["builds"][b]["sinks"][s]
            print(f"{b:8s} {s:12s} wall {e['wall_s']['median']:.3f} s"
                  f" (iqr {e['wall_s']['iqr']:.3f})"
                  f"  rss {e['peak_rss_mb']['median']:.1f} MiB")
    print(f"rss floor {floor:.1f} MiB")
    if opts.out:
        doc = {"history": []}
        if os.path.exists(opts.out):
            with open(opts.out) as f:
                doc = json.load(f)
        doc["history"].append(result)
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
