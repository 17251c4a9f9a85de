#!/usr/bin/env python3
"""Check that the --host-par point farm leaves every output unchanged.

Runs reduced benches serially and on four host threads, and requires
byte-identical stdout and --stats-json for each. Farmed points share
no simulator state, and results are recorded in point order after
the join (DESIGN.md section 5j). The benches cover each point shape
the driver handles:

  fig18  credit sweep; also --timeline, whose file must match too
         and be the only file left behind (only the last point
         writes it)
  fig15  thread sweep plus a 1-thread serial baseline
  fig03  BSP, OBIM with bucket-interval overrides, and timeouts;
         also --diag-json, which several points write: the file
         left must be the serial run's (the last timed-out point's)
         and the only one left behind
  fig04  per-point machine overrides (the ROB sweep)

A last leg interrupts a farmed fig16 with SIGINT: every running point
must stop, and the bench must exit once, with 128+SIGINT and a
complete --stats-json holding the points that ran (the cut-short
ones unverified), in point order.

Under a TSan build this is also the race detector's workload, since
the farm is the simulator's only threaded code.

Usage: check_host_par_ab.py <bench-binary-directory>
Exit status 0 on success; prints the failure otherwise.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

# (bench, args, output-file flags beside --stats-json)
LEGS = [
    ("fig18_mpki_credits",
     ["--workloads=sssp,bfs", "--threads=16",
      "--credits-list=8,32,64,128", "--scale=0.1"],
     {"--timeline": "timeline.json"}),
    ("fig15_scalability",
     ["--workloads=sssp,bfs", "--threads=8", "--scale=0.1"], {}),
    ("fig03_scheduler_zoo",
     ["--workloads=sssp,cc", "--threads=4", "--scale=0.1",
      "--max-events=4000"],
     {"--diag-json": "diag.json"}),
    ("fig04_rob_sweep",
     ["--workloads=sssp", "--threads=4", "--scale=0.05"], {}),
]


def fail(msg):
    print(f"check_host_par_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def run(binary, args, host_par, files):
    """Run one leg in a fresh directory; return its outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [binary, *args, f"--host-par={host_par}",
               "--stats-json=stats.json"]
        cmd += [f"{flag}={name}" for flag, name in files.items()]
        proc = subprocess.run(cmd, capture_output=True, cwd=tmp,
                              timeout=1200)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout.decode()}\n{proc.stderr.decode()}")
        left = sorted(os.listdir(tmp))
        want = sorted(["stats.json", *files.values()])
        if left != want:
            fail(f"{' '.join(cmd)} left {left}, expected {want}")
        return {name: read(os.path.join(tmp, name)) for name in left} | \
            {"stdout": proc.stdout}


def check_interrupt(bench_dir):
    fig16 = os.path.join(bench_dir, "fig16_overall_speedup")
    workloads = ["sssp", "bfs", "pr"]
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [fig16, f"--workloads={','.join(workloads)}",
               "--threads=16", "--scale=1", "--host-par=4",
               "--stats-json=stats.json"]
        proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=1200)
        if proc.returncode != 128 + signal.SIGINT:
            fail(f"interrupted fig16 exited {proc.returncode}, not"
                 f" {128 + signal.SIGINT}:\n{err.decode()}")
        if err.count(b"interrupted by signal") != 1:
            fail(f"interrupted fig16 did not report the stop once:\n"
                 f"{err.decode()}")
        with open(os.path.join(tmp, "stats.json")) as f:
            runs = json.load(f)["runs"]
    declared = [(w, c) for w in workloads
                for c in ("obim", "minnow", "minnow-pf")]
    it = iter(declared)
    if not all((r["workload"], r["config"]) in it for r in runs):
        fail(f"interrupted fig16 recorded {runs}: not in point order")
    if all(r["verified"] for r in runs):
        fail("interrupted fig16 recorded no cut-short point")
    print(f"check_host_par_ab: SIGINT at --host-par=4 OK ({len(runs)}"
          " points recorded in point order, exit 130)")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_host_par_ab.py <bench-binary-directory>")
    for name, args, files in LEGS:
        binary = os.path.join(os.path.abspath(sys.argv[1]), name)
        serial = run(binary, args, 1, files)
        farmed = run(binary, args, 4, files)
        if not serial["stats.json"] or not serial["stdout"]:
            fail(f"{name} at --host-par=1 wrote no stats or stdout")
        if name == "fig03_scheduler_zoo" and \
                serial["stdout"].count(b"TIMEOUT") < 2:
            fail(f"{name} times out fewer than 2 points at {args}: the"
                 " leg must cover several --diag-json writers")
        for out in serial:
            if serial[out] != farmed[out]:
                fail(f"{name}: {out} differs between --host-par=1"
                     " and --host-par=4")
        sizes = ", ".join(f"{out} {len(serial[out])} B"
                          for out in sorted(serial))
        print(f"check_host_par_ab: {name} OK ({sizes} identical at"
              " --host-par=1 and 4)")
    check_interrupt(os.path.abspath(sys.argv[1]))


if __name__ == "__main__":
    main()
